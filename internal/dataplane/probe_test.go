package dataplane

import "net/netip"

// WalkerExpand is router's expansion for dst in the forwarding state w
// walks, for the package's external tests.
func WalkerExpand(w *Walker, router string, dst netip.Addr) Expansion {
	return Expand(w.fwd, router, dst)
}

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
		opts := Expand(w.fwd, cur, dst).options()
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

// ChoicesOf derives the choice vector that selects the enumerated path p:
// at each router with more than one option, the index of the option p
// takes — the forward to p's next router or, at its last, p's outcome. A
// step no option explains adds no choice, so its replay diverges.
func (w *Walker) ChoicesOf(p Walk) []int {
	var out []int
	for i, r := range p.Path {
		opts := Expand(w.fwd, r, p.Dst).options()
		if len(opts) < 2 {
			continue
		}
		for j, o := range opts {
			last := i+1 == len(p.Path)
			if last && o.terminal && o.outcome == p.Outcome || !last && !o.terminal && o.next == p.Path[i+1] {
				out = append(out, j)
				break
			}
		}
	}
	return out
}
