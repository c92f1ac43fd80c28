package graph

import (
	"cmp"
	"slices"
	"sort"
)

// A Frozen is an immutable compressed-sparse-row snapshot of a
// dependency graph: node ids in one sorted array, adjacency in CSR rows
// with columns ascending, every edge carrying its KindSet. It is the
// form every cycle search runs over (Tarjan and the §6 BFS searches, in
// tarjan.go and cycles.go); Graph is only the mutable builder. Because
// rows are in ascending external-id order, a search that walks a row
// visits neighbors in the deterministic order reports depend on.
//
// The batch checker freezes the whole merged graph once (Graph.Freeze),
// and a streaming session freezes the induced subgraph of the
// components a chunk dirtied (NewFrozen). A Frozen lives only as long
// as the search over it; nothing persists one.
type Frozen struct {
	nodes    []int     // sorted external node ids
	rowStart []int32   // rowStart[i]..rowStart[i+1] index to/ks for node i
	to       []int32   // column: index into nodes
	ks       []KindSet // edge labels, parallel to to
}

// Freeze snapshots the whole graph. g is not modified or retained.
func (g *Graph) Freeze() *Frozen {
	rows := make([]int32, len(g.nodes)) // dense ids in external-id order
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortFunc(rows, func(a, b int32) int { return cmp.Compare(g.nodes[a], g.nodes[b]) })
	col := make([]int32, len(g.nodes))
	for c, d := range rows {
		col[d] = int32(c)
	}
	return g.freeze(rows, g.edges, func(d int32) int32 { return col[d] })
}

// NewFrozen snapshots the subgraph of g induced by nodes. Ids absent
// from g are ignored; duplicates collapse. The cost is O(edges incident
// to nodes), not O(graph). The input graph is not modified or retained.
func NewFrozen(g *Graph, nodes []int) *Frozen {
	sorted := make([]int, 0, len(nodes))
	for _, n := range nodes {
		if g.HasNode(n) {
			sorted = append(sorted, n)
		}
	}
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)

	rows := make([]int32, len(sorted))
	col := make(map[int32]int32, len(sorted)) // dense id -> column
	for i, n := range sorted {
		rows[i] = g.ids[n]
		col[rows[i]] = int32(i)
	}
	return g.freeze(rows, 0, func(d int32) int32 {
		if c, ok := col[d]; ok {
			return c
		}
		return -1
	})
}

// freeze builds the Frozen whose i-th row is dense node rows[i], keeping
// the edges whose target column colOf reports (-1 drops an edge). rows
// must be in ascending external-id order; edges sizes the column arrays.
func (g *Graph) freeze(rows []int32, edges int, colOf func(dense int32) int32) *Frozen {
	f := &Frozen{
		nodes:    make([]int, len(rows)),
		rowStart: make([]int32, len(rows)+1),
		to:       make([]int32, 0, edges),
		ks:       make([]KindSet, 0, edges),
	}
	var rs rowSorter
	for i, d := range rows {
		f.nodes[i] = g.nodes[d]
		start := len(f.to)
		f.rowStart[i] = int32(start)
		// Adjacency is sorted by dense id (insertion order); re-sort the
		// surviving entries by frozen column, i.e. by external id.
		for _, e := range g.adj[d] {
			if c := colOf(e.to); c >= 0 {
				f.to = append(f.to, c)
				f.ks = append(f.ks, e.ks)
			}
		}
		if row := f.to[start:]; !slices.IsSorted(row) {
			rs = rowSorter{row, f.ks[start:]}
			sort.Sort(&rs)
		}
	}
	f.rowStart[len(rows)] = int32(len(f.to))
	return f
}

type rowSorter struct {
	to []int32
	ks []KindSet
}

func (r *rowSorter) Len() int           { return len(r.to) }
func (r *rowSorter) Less(i, j int) bool { return r.to[i] < r.to[j] }
func (r *rowSorter) Swap(i, j int) {
	r.to[i], r.to[j] = r.to[j], r.to[i]
	r.ks[i], r.ks[j] = r.ks[j], r.ks[i]
}

// Nodes returns the frozen node ids, sorted ascending.
func (f *Frozen) Nodes() []int {
	out := make([]int, len(f.nodes))
	copy(out, f.nodes)
	return out
}

// Edges lists every frozen edge, expanded per kind, in (from, to, kind)
// order — the same shape analyzers feed AddEdges, so a Frozen can be
// replayed into any graph.
func (f *Frozen) Edges() []Edge {
	out := make([]Edge, 0, len(f.to))
	for i, n := range f.nodes {
		for p := f.rowStart[i]; p < f.rowStart[i+1]; p++ {
			for _, k := range f.ks[p].Kinds() {
				out = append(out, Edge{From: n, To: f.nodes[f.to[p]], Kind: k})
			}
		}
	}
	return out
}
