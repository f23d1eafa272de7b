// Histogram: bounded-memory latency quantiles, for every timed path. A
// count and a total cannot express a p99 target; the query engine needs
// tail latency. Buckets are log-linear
// (HDR-style): each power-of-two range is split into 2^histSubBits linear
// sub-buckets, giving ≤12.5% relative error on any reported quantile with
// a fixed 512-slot footprint — no per-observation allocation, safe for
// concurrent use from every query goroutine.

package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	histSubBits = 3                // linear sub-buckets per power of two
	histSub     = 1 << histSubBits // 8
	histBuckets = 61 * histSub     // covers the full positive int64 range
)

// Histogram records durations into fixed log-linear buckets and reports
// quantiles. The zero value is usable; a nil Histogram discards
// observations and reports zeros.
type Histogram struct {
	count   atomic.Int64
	total   atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// histIndex maps a nanosecond value to its bucket. Values below histSub
// map identically; above that the top histSubBits+1 bits select the
// bucket, so bucket width doubles every power of two.
func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	top := 63 - bits.LeadingZeros64(uint64(v)) // position of the highest set bit
	shift := top - histSubBits
	group := shift + 1
	sub := int(v>>shift) & (histSub - 1)
	i := group*histSub + sub
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histValue returns a representative (mid-bucket) nanosecond value for a
// bucket index — the inverse of histIndex up to bucket width.
func histValue(i int) int64 {
	group := i / histSub
	sub := int64(i % histSub)
	if group == 0 {
		return sub
	}
	shift := group - 1
	lo := (histSub + sub) << shift
	width := int64(1) << shift
	return lo + width/2
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	h.total.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations; 0 for a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Total returns the summed duration; 0 for a nil histogram.
func (h *Histogram) Total() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.total.Load())
}

// Quantile returns the q-quantile (q in [0,1]) of everything observed so
// far, accurate to the containing bucket's width. Concurrent observations
// may shift the answer by the in-flight updates; that is fine for
// monitoring. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			v := histValue(i)
			if m := h.max.Load(); v > m {
				v = m // never report a quantile above the true max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max.Load())
}
