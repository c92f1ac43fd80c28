package graph

import "sort"

// Incr maintains the strongly connected components of a growing
// dependency graph under append-only edge insertion — the graph half of
// the streaming checker. Instead of re-running Tarjan over the whole
// graph after every chunk, it keeps three structures in lockstep:
//
//   - a union-find partition of the nodes into components,
//   - the condensation (the DAG of components) with adjacency in both
//     directions, and
//   - a topological order of the condensation, maintained with the
//     Pearce-Kelly dynamic topological-sort algorithm.
//
// The order is what bounds the work. An inserted edge a -> b whose
// components already satisfy ord(a) < ord(b) cannot create a cycle and
// costs O(1). Only an order-violating edge triggers searches, and those
// are restricted to the affected region — the components whose order
// lies between b's and a's — after which either the region is locally
// reordered (still acyclic) or the components on the new cycle collapse
// into one. Either way, untouched parts of the graph are never visited.
//
// DirtySCCs drains the components touched since the last call, which is
// exactly the work-list for limited cycle recomputation: the caller
// re-runs the (parallel) cycle searches on the induced subgraph of the
// dirty components only, reusing the same machinery as the batch path.
type Incr struct {
	g    *Graph
	mask KindSet

	parent []int32
	rank   []int32
	ord    []int64 // topological position; meaningful for roots only

	nextOrd int64
	members map[int32][]int32        // root -> member dense ids (only for size >= 2)
	out     map[int32]map[int32]bool // condensation out-edges between roots
	in      map[int32]map[int32]bool // condensation in-edges between roots
	dirty   map[int32]bool           // roots whose components changed since the last drain
}

// NewIncr returns an empty incremental SCC maintainer over edges whose
// kind intersects mask.
func NewIncr(mask KindSet) *Incr {
	return &Incr{
		g:       New(),
		mask:    mask,
		members: map[int32][]int32{},
		out:     map[int32]map[int32]bool{},
		in:      map[int32]map[int32]bool{},
		dirty:   map[int32]bool{},
	}
}

// Graph returns the underlying graph. It grows monotonically: the
// caller may read it (searches, subgraphs) but must add edges through
// Incr so the component index stays consistent.
func (x *Incr) Graph() *Graph { return x.g }

// Ensure adds node n if absent.
func (x *Incr) Ensure(n int) {
	x.ensure(n)
}

func (x *Incr) ensure(n int) int32 {
	id := x.g.Ensure(n)
	for int(id) >= len(x.parent) {
		x.parent = append(x.parent, int32(len(x.parent)))
		x.rank = append(x.rank, 0)
		x.ord = append(x.ord, x.nextOrd)
		x.nextOrd++
	}
	return id
}

func (x *Incr) find(v int32) int32 {
	for x.parent[v] != v {
		x.parent[v] = x.parent[x.parent[v]] // path halving
		v = x.parent[v]
	}
	return v
}

// AddEdges inserts every edge in order.
func (x *Incr) AddEdges(edges []Edge) {
	for _, e := range edges {
		x.AddEdge(e.From, e.To, e.Kind)
	}
}

// AddEdge inserts one edge, updating the component partition. Edges the
// graph already holds are no-ops, so re-feeding a recomputed edge list
// is cheap and idempotent.
func (x *Incr) AddEdge(a, b int, k Kind) {
	ai, bi := x.ensure(a), x.ensure(b)
	if a == b {
		return
	}
	if !x.g.addKindDense(ai, bi, k) {
		return // the graph already held this edge kind
	}
	if !x.mask.Has(k) {
		return
	}
	ra, rb := x.find(ai), x.find(bi)
	if ra == rb {
		// A new edge inside a cyclic component: structure unchanged, but
		// new witnesses may exist.
		x.dirty[ra] = true
		return
	}
	if x.out[ra][rb] {
		return // the condensation already has this edge
	}
	x.link(ra, rb)
	if x.ord[ra] < x.ord[rb] {
		return // topological order undisturbed: no cycle possible
	}
	x.restore(ra, rb)
}

func (x *Incr) link(ra, rb int32) {
	if x.out[ra] == nil {
		x.out[ra] = map[int32]bool{}
	}
	x.out[ra][rb] = true
	if x.in[rb] == nil {
		x.in[rb] = map[int32]bool{}
	}
	x.in[rb][ra] = true
}

// restore repairs the topological order after inserting the
// order-violating condensation edge from -> to (ord[to] < ord[from]),
// following Pearce & Kelly: search forward from "to" and backward from
// "from", both restricted to the affected window of the order; if the
// searches meet, the components on the new cycle collapse into one;
// either way the affected components are reassigned the same order
// slots so every condensation edge points forward again.
func (x *Incr) restore(from, to int32) {
	lb, ub := x.ord[to], x.ord[from]

	// Forward from "to", visiting only components ordered before "from".
	seenF := map[int32]bool{to: true}
	deltaF := []int32{to}
	cycle := false
	stack := []int32{to}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb := range x.out[c] {
			if nb == from {
				cycle = true
				continue
			}
			if !seenF[nb] && x.ord[nb] < ub {
				seenF[nb] = true
				deltaF = append(deltaF, nb)
				stack = append(stack, nb)
			}
		}
	}
	// Backward from "from", visiting only components ordered after "to".
	seenB := map[int32]bool{from: true}
	deltaB := []int32{from}
	stack = append(stack[:0], from)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb := range x.in[c] {
			if !seenB[nb] && x.ord[nb] > lb {
				seenB[nb] = true
				deltaB = append(deltaB, nb)
				stack = append(stack, nb)
			}
		}
	}

	// The affected components' order slots, redistributed below. A
	// component can appear in both searches only when there is a cycle;
	// collect slots from the union.
	var slots []int64
	for c := range seenF {
		slots = append(slots, x.ord[c])
	}
	for c := range seenB {
		if !seenF[c] {
			slots = append(slots, x.ord[c])
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	byOrd := func(list []int32) {
		sort.Slice(list, func(i, j int) bool { return x.ord[list[i]] < x.ord[list[j]] })
	}

	if !cycle {
		// Everything reaching "from" moves before everything reachable
		// from "to", each side keeping its internal order.
		byOrd(deltaB)
		byOrd(deltaF)
		i := 0
		for _, c := range deltaB {
			x.ord[c] = slots[i]
			i++
		}
		for _, c := range deltaF {
			x.ord[c] = slots[i]
			i++
		}
		return
	}

	// A cycle: every component both reachable from "to" and reaching
	// "from" (the searches' intersection, plus the endpoints) collapses.
	inS := map[int32]bool{from: true, to: true}
	for _, c := range deltaF {
		if seenB[c] {
			inS[c] = true
		}
	}
	var bSide, fSide []int32
	for _, c := range deltaB {
		if !inS[c] {
			bSide = append(bSide, c)
		}
	}
	for _, c := range deltaF {
		if !inS[c] {
			fSide = append(fSide, c)
		}
	}
	byOrd(bSide)
	byOrd(fSide)
	roots := make([]int32, 0, len(inS))
	for c := range inS {
		roots = append(roots, c)
	}
	nr := x.merge(roots)
	// Backward side keeps the bottom slots (components only ever move
	// down), forward side the top slots (only ever up) — exactly as in
	// the acyclic reorder — and the merged component takes a slot
	// strictly between the blocks; the >= 2 collapsed components
	// guarantee one exists. Compacting instead would drag forward-side
	// components below unaffected ones.
	i := 0
	for _, c := range bSide {
		x.ord[c] = slots[i]
		i++
	}
	x.ord[nr] = slots[i]
	top := len(slots) - len(fSide)
	for j, c := range fSide {
		x.ord[c] = slots[top+j]
	}
}

// merge collapses the given component roots into one, rewiring the
// condensation and marking the survivor dirty. It returns the survivor.
func (x *Incr) merge(roots []int32) int32 {
	// Pick the highest-rank root as the survivor.
	nr := roots[0]
	for _, r := range roots[1:] {
		if x.rank[r] > x.rank[nr] {
			nr = r
		}
	}
	x.rank[nr]++
	merged := map[int32]bool{}
	for _, r := range roots {
		merged[r] = true
	}
	// Collect members and external adjacency of the merged components.
	var ms []int32
	outs := map[int32]bool{}
	ins := map[int32]bool{}
	for _, r := range roots {
		if mem := x.members[r]; mem != nil {
			ms = append(ms, mem...)
			delete(x.members, r)
		} else {
			ms = append(ms, r)
		}
		for nb := range x.out[r] {
			if !merged[nb] {
				outs[nb] = true
			}
		}
		for nb := range x.in[r] {
			if !merged[nb] {
				ins[nb] = true
			}
		}
		delete(x.out, r)
		delete(x.in, r)
		delete(x.dirty, r)
		x.parent[r] = nr
	}
	x.parent[nr] = nr
	x.members[nr] = ms
	// Rewire neighbors: their edges to any merged root now point at nr.
	for nb := range outs {
		x.link(nr, nb)
		for _, r := range roots {
			if r != nr {
				delete(x.in[nb], r)
			}
		}
	}
	for nb := range ins {
		x.link(nb, nr)
		for _, r := range roots {
			if r != nr {
				delete(x.out[nb], r)
			}
		}
	}
	x.dirty[nr] = true
	return nr
}

// SCCs returns every current component of size >= 2 as sorted node
// slices in sorted order, without touching the dirty set — the full
// partition, for inspection and for differential tests against the
// batch Tarjan.
func (x *Incr) SCCs() [][]int {
	var out [][]int
	for r, mem := range x.members {
		if x.find(r) != r || len(mem) < 2 {
			continue
		}
		scc := make([]int, len(mem))
		for i, m := range mem {
			scc[i] = x.g.nodes[m]
		}
		sort.Ints(scc)
		out = append(out, scc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// DirtySCCs drains and returns the components (of size >= 2, the only
// ones that can contain a cycle) touched since the last call: each as a
// sorted slice of external node ids, the slices sorted by first node.
// This is the work-list for limited cycle recomputation after a chunk
// of edge insertions.
func (x *Incr) DirtySCCs() [][]int {
	if len(x.dirty) == 0 {
		return nil
	}
	var out [][]int
	for r := range x.dirty {
		mem := x.members[r]
		if len(mem) < 2 {
			continue
		}
		scc := make([]int, len(mem))
		for i, m := range mem {
			scc[i] = x.g.nodes[m]
		}
		sort.Ints(scc)
		out = append(out, scc)
	}
	x.dirty = map[int32]bool{}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Retire rebuilds the incremental graph in place over the nodes for
// which keep returns true; every other node, and every edge touching
// one, is dropped. Callers choose keep so that can't lose findings: a
// session retires only nodes whose keys can gain no further edges, so
// no cycle through a retired node can still form, and any that existed
// was searched and surfaced before Retire ran. The dropped region is
// not kept anywhere: a budgeted Finish re-analyzes the rehydrated
// history instead.
func (x *Incr) Retire(keep func(int) bool) {
	old := x.g
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
		if keep(n) {
			survivors = append(survivors, survivor{int32(ai), x.ord[x.find(int32(ai))]})
		}
	}
	sort.Slice(survivors, func(i, j int) bool {
		if survivors[i].ord != survivors[j].ord {
			return survivors[i].ord < survivors[j].ord
		}
		return survivors[i].ai < survivors[j].ai
	})

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
}
