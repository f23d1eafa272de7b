package dataplane

import "net/netip"

// ForwardChoices walks one *concrete* path: at every router whose
// expansion offers more than one branch, the next entry of choices picks
// the branch (out-of-range indexes clamp; exhausted choices pick the first
// branch). It is a single-next-hop probe walker to replay the paths
// ConcretePaths enumerates through.
func (w *Walker) ForwardChoices(src string, dst netip.Addr, choices []int) Walk {
	walk := Walk{Dst: dst, Path: []string{src}}
	visited := map[string]bool{src: true}
	cur := src
	ci := 0
	for hop := 0; hop < MaxHops; hop++ {
		opts := w.Expand(cur, dst).options()
		if len(opts) == 0 {
			walk.Outcome = Stuck
			return walk
		}
		pick := 0
		if len(opts) > 1 {
			if ci < len(choices) {
				pick = choices[ci]
			}
			ci++
			if pick < 0 {
				pick = 0
			}
			if pick >= len(opts) {
				pick = len(opts) - 1
			}
		}
		o := opts[pick]
		if o.terminal {
			walk.Outcome = o.outcome
			if o.outcome == Delivered {
				walk.Egress = cur
			}
			return walk
		}
		if visited[o.next] {
			walk.Path = append(walk.Path, o.next)
			walk.Outcome = Looped
			return walk
		}
		visited[o.next] = true
		walk.Path = append(walk.Path, o.next)
		cur = o.next
	}
	walk.Outcome = Looped // exceeded hop budget: treat as a forwarding loop
	return walk
}
