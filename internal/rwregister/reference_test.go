package rwregister

import "sort"

// The map-based version graph this package used before the dense
// ordinal index: value -> set of successor values. It is kept as the
// reference the dense reduction and cycle check are compared against.

// refCyclicWitness returns a cycle of versions if the version graph has
// one, or nil if the graph is acyclic. Uses iterative DFS with colors.
func refCyclicWitness(vg map[int]map[int]bool) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	parent := map[int]int{}
	var nodes []int
	for v := range vg {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)

	for _, root := range nodes {
		if color[root] != white {
			continue
		}
		type frame struct {
			v    int
			next []int
			i    int
		}
		stack := []frame{{v: root, next: sortedTargets(vg[root])}}
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(f.next) {
				w := f.next[f.i]
				f.i++
				switch color[w] {
				case white:
					color[w] = gray
					parent[w] = f.v
					stack = append(stack, frame{v: w, next: sortedTargets(vg[w])})
				case gray:
					// Found a back edge f.v -> w: reconstruct the cycle.
					cyc := []int{w}
					for at := f.v; at != w; at = parent[at] {
						cyc = append(cyc, at)
					}
					// Reverse into forward order.
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
				continue
			}
			color[f.v] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

func sortedTargets(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// refReduce removes transitively implied edges from an acyclic version
// graph in place, so that direct edges mean "next version".
func refReduce(vg map[int]map[int]bool) {
	for u, outs := range vg {
		for v := range outs {
			if reachableAvoiding(vg, u, v) {
				delete(outs, v)
			}
		}
	}
}

// reachableAvoiding reports whether v is reachable from u without using
// the direct edge u->v.
func reachableAvoiding(vg map[int]map[int]bool, u, v int) bool {
	visited := map[int]bool{u: true}
	stack := []int{}
	for w := range vg[u] {
		if w != v && !visited[w] {
			visited[w] = true
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		for w := range vg[x] {
			if !visited[w] {
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}
