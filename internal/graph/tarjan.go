package graph

import (
	"cmp"
	"slices"
)

// SCCs computes the strongly connected components of the subgraph
// induced by edges whose label intersects mask. Only components that can
// contain a cycle (size ≥ 2) are returned, since self-edges are never
// stored: each as ascending external node ids, the components ordered
// by their smallest node. Every call runs a fresh Tarjan pass; nothing
// is memoized.
func (f *Frozen) SCCs(mask KindSet) [][]int {
	comps := f.components(mask)
	out := make([][]int, len(comps))
	for i, comp := range comps {
		out[i] = make([]int, len(comp))
		for j, v := range comp {
			out[i][j] = f.nodes[v]
		}
	}
	return out
}

// components is SCCs over row indices: each component ascending, the
// components ordered by first member. Row order is external-id order,
// so these are exactly SCCs' components.
//
// The pass is an iterative Tarjan, so histories of hundreds of
// thousands of transactions don't overflow the goroutine stack, and it
// walks CSR rows directly, filtering by mask inline. It runs in
// O(nodes + edges) time (§2 of the paper cites this as the reason cycle
// detection is tractable). Singleton components are popped without
// being materialized: on a mostly acyclic graph they are nearly every
// component.
func (f *Frozen) components(mask KindSet) [][]int32 {
	n := len(f.nodes)
	index := make([]int32, n) // preorder number + 1; 0 = unvisited
	low := make([]int32, n)
	onStack := make([]bool, n)
	var (
		next    int32
		stack   []int32 // Tarjan's component stack
		callers []frame // explicit DFS stack
		comps   [][]int32
	)
	visit := func(v int32) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		callers = append(callers, frame{v: v, e: f.rowStart[v]})
	}
	for root := int32(0); root < int32(n); root++ {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(callers) > 0 {
			fr := &callers[len(callers)-1]
			v := fr.v
			descended := false
			for end := f.rowStart[v+1]; fr.e < end; {
				e := fr.e
				fr.e++
				if !f.ks[e].Intersects(mask) {
					continue
				}
				w := f.to[e]
				if index[w] == 0 {
					// Descend; visit may relocate callers, so fr must not
					// be touched again this iteration.
					visit(w)
					descended = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if descended {
				continue
			}
			// All neighbors done: maybe emit a component, then return.
			if low[v] == index[v] {
				top := len(stack) - 1
				for stack[top] != v {
					top--
				}
				for _, w := range stack[top:] {
					onStack[w] = false
				}
				if top < len(stack)-1 {
					comp := slices.Clone(stack[top:])
					slices.Sort(comp)
					comps = append(comps, comp)
				}
				stack = stack[:top]
			}
			callers = callers[:len(callers)-1]
			if len(callers) > 0 {
				p := callers[len(callers)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	slices.SortFunc(comps, func(a, b []int32) int { return cmp.Compare(a[0], b[0]) })
	return comps
}

// frame is one DFS activation: the node and the next edge of its row.
type frame struct {
	v, e int32
}
