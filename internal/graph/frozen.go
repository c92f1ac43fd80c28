package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
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
// The batch checker freezes the whole merged graph once (Graph.Freeze);
// a streaming session freezes the induced subgraph of the components a
// chunk dirtied (NewFrozen), and Incr.Retire condenses a settled region
// into one. The structure serializes to a compact varint form (Encode /
// DecodeFrozen) suitable for the same spill machinery retired history
// segments use.
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

// NumNodes returns the frozen node count.
func (f *Frozen) NumNodes() int { return len(f.nodes) }

// NumEdges returns the frozen edge count (distinct ordered pairs).
func (f *Frozen) NumEdges() int { return len(f.to) }

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

// frozenMagic guards serialized Frozen segments: "Fz" plus a version.
var frozenMagic = [3]byte{0xF5, 'z', 1}

// Encode appends a compact varint serialization of f to dst: the sorted
// node array delta-encoded, then each CSR row as a length followed by
// delta-encoded columns with a label byte each.
func (f *Frozen) Encode(dst []byte) []byte {
	dst = append(dst, frozenMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(f.nodes)))
	prev := 0
	for i, n := range f.nodes {
		if i == 0 {
			dst = binary.AppendVarint(dst, int64(n))
		} else {
			dst = binary.AppendUvarint(dst, uint64(n-prev)) // sorted: non-negative
		}
		prev = n
	}
	for i := range f.nodes {
		row := f.to[f.rowStart[i]:f.rowStart[i+1]]
		lab := f.ks[f.rowStart[i]:f.rowStart[i+1]]
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		prevCol := int32(0)
		for j, c := range row {
			if j == 0 {
				dst = binary.AppendUvarint(dst, uint64(c))
			} else {
				dst = binary.AppendUvarint(dst, uint64(c-prevCol))
			}
			prevCol = c
			dst = append(dst, byte(lab[j]))
		}
	}
	return dst
}

// DecodeFrozen parses one Encode result (exactly; trailing bytes are an
// error so corrupted segment boundaries are caught, not skipped). Length
// prefixes are bounded by the bytes that remain — a node costs at least
// one byte and an edge at least two — so a corrupt count fails cleanly
// instead of sizing an allocation. Node ids and row columns must be
// strictly ascending, no row may hold a self-edge and every label must
// name a kind: the invariants Encode writes and the searches rely on.
func DecodeFrozen(b []byte) (*Frozen, error) {
	if len(b) < len(frozenMagic) || b[0] != frozenMagic[0] || b[1] != frozenMagic[1] || b[2] != frozenMagic[2] {
		return nil, fmt.Errorf("graph: frozen segment: bad magic")
	}
	b = b[len(frozenMagic):]
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("graph: frozen segment: truncated varint")
		}
		b = b[n:]
		return v, nil
	}
	nn, err := uv()
	if err != nil {
		return nil, err
	}
	if nn > uint64(len(b)) {
		return nil, fmt.Errorf("graph: frozen segment: %d nodes in %d bytes", nn, len(b))
	}
	f := &Frozen{nodes: make([]int, nn), rowStart: make([]int32, nn+1)}
	prev := int64(0)
	for i := range f.nodes {
		if i == 0 {
			v, n := binary.Varint(b)
			if n <= 0 {
				return nil, fmt.Errorf("graph: frozen segment: truncated varint")
			}
			b = b[n:]
			prev = v
		} else {
			d, err := uv()
			if err != nil {
				return nil, err
			}
			next := prev + int64(d)
			if d == 0 || int64(d) < 0 || next < prev {
				return nil, fmt.Errorf("graph: frozen segment: node ids not strictly ascending at node %d", i)
			}
			prev = next
		}
		f.nodes[i] = int(prev)
	}
	for i := 0; i < int(nn); i++ {
		f.rowStart[i] = int32(len(f.to))
		rl, err := uv()
		if err != nil {
			return nil, err
		}
		if rl > uint64(len(b))/2 {
			return nil, fmt.Errorf("graph: frozen segment: row of %d edges in %d bytes", rl, len(b))
		}
		col := uint64(0)
		for j := uint64(0); j < rl; j++ {
			d, err := uv()
			if err != nil {
				return nil, err
			}
			if j > 0 && d == 0 {
				return nil, fmt.Errorf("graph: frozen segment: row %d columns not strictly ascending", i)
			}
			if d >= nn || col+d >= nn {
				return nil, fmt.Errorf("graph: frozen segment: column out of range in row %d", i)
			}
			col += d
			if col == uint64(i) {
				return nil, fmt.Errorf("graph: frozen segment: self-edge on row %d", i)
			}
			if len(b) == 0 {
				return nil, fmt.Errorf("graph: frozen segment: missing label byte")
			}
			lab := KindSet(b[0])
			if lab == 0 || lab>>numKinds != 0 {
				return nil, fmt.Errorf("graph: frozen segment: bad label %#x in row %d", b[0], i)
			}
			f.to = append(f.to, int32(col))
			f.ks = append(f.ks, lab)
			b = b[1:]
		}
	}
	f.rowStart[nn] = int32(len(f.to))
	if len(b) != 0 {
		return nil, fmt.Errorf("graph: frozen segment: %d trailing bytes", len(b))
	}
	return f, nil
}

// Retire splits the incremental graph at a settlement boundary: nodes
// for which keep returns false are frozen — their induced subgraph
// snapshotted into the returned Frozen — and the Incr is rebuilt in
// place over the survivors only, in deterministic dense-id order.
// Edges crossing the boundary are discarded; callers choose the keep
// predicate so that can't lose findings (a retired transaction's edges
// to live ones would only matter for cycles through the live region,
// and sessions only retire nodes whose keys can gain no further edges,
// making such cycles impossible by the time Retire runs — any that did
// exist were searched and surfaced before retirement).
func (x *Incr) Retire(keep func(int) bool) *Frozen {
	old := x.g
	var dead []int
	// Survivors re-enter in the old topological order of their
	// components (ties broken by dense id, which keeps each old SCC
	// contiguous). Re-fed that way, every cross-component edge is
	// order-respecting — an O(1) insert for Pearce-Kelly — and only
	// within-SCC edges pay for restoration, which re-merges exactly the
	// components that must collapse anyway. Feeding in dense-id order
	// instead makes the rebuild quadratic-ish in practice: dense ids
	// are arrival order, not topological order, so a large share of
	// edges lands order-violating and triggers region reorderings.
	type survivor struct {
		ai  int32
		ord int64
	}
	var survivors []survivor
	for ai, n := range old.nodes {
		if !keep(n) {
			dead = append(dead, n)
			continue
		}
		survivors = append(survivors, survivor{int32(ai), x.ord[x.find(int32(ai))]})
	}
	sort.Slice(survivors, func(i, j int) bool {
		if survivors[i].ord != survivors[j].ord {
			return survivors[i].ord < survivors[j].ord
		}
		return survivors[i].ai < survivors[j].ai
	})
	fz := NewFrozen(old, dead)

	x.g = New()
	x.parent = x.parent[:0]
	x.rank = x.rank[:0]
	x.ord = x.ord[:0]
	x.nextOrd = 0
	x.members = map[int32][]int32{}
	x.out = map[int32]map[int32]bool{}
	x.in = map[int32]map[int32]bool{}
	x.dirty = map[int32]bool{}

	for _, s := range survivors {
		x.ensure(old.nodes[s.ai]) // survivors keep their nodes even when isolated
	}
	for _, s := range survivors {
		a := old.nodes[s.ai]
		for _, e := range old.adj[s.ai] {
			b := old.nodes[e.to]
			if !keep(b) {
				continue
			}
			for _, k := range e.ks.Kinds() {
				x.AddEdge(a, b, k)
			}
		}
	}
	return fz
}
