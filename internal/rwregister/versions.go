package rwregister

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
)

// versionGraph builds the per-key partial version order for key k from
// the enabled inference rules, over the key's interned versions with
// nilVer standing in for the initial version.
func (a *analyzer) versionGraph(k history.KeyID, oks []op.Op) *versionGraph {
	vers := a.sortedVersions(k)
	ord := func(v int) uint64 {
		i, found := slices.BinarySearch(vers, v)
		if !found {
			panic(fmt.Sprintf("rwregister: version %d of key %s missing from the version index", v, a.in.Key(k)))
		}
		return uint64(i)
	}
	var edges []uint64
	addEdge := func(u, v int) {
		if u != v {
			edges = append(edges, ord(u)<<32|ord(v))
		}
	}
	if a.opts.InitialState {
		// nilVer is ordinal 0, so nil -> v packs to v's ordinal alone.
		for i := 1; i < len(vers); i++ {
			edges = append(edges, uint64(i))
		}
	}

	if a.opts.WritesFollowReads {
		kname := a.in.Key(k)
		for _, o := range oks {
			cur, haveCur := nilVer, false
			for _, m := range o.Mops {
				if m.Key != kname {
					continue
				}
				switch m.F {
				case op.FRead:
					if !m.RegKnown {
						continue
					}
					if m.RegNil {
						cur, haveCur = nilVer, true
					} else {
						cur, haveCur = m.Reg, true
					}
				case op.FWrite:
					if haveCur {
						addEdge(cur, m.Arg)
					}
					cur, haveCur = m.Arg, true
				}
			}
		}
	}

	if a.opts.LinearizableKeys {
		a.linearizableEdges(k, oks, addEdge)
	}
	if a.opts.SequentialKeys {
		a.sequentialEdges(k, oks, addEdge)
	}
	return newVersionGraph(vers, edges)
}

// sortedVersions lists key k's versions in ascending order: nilVer
// first, then every value written or read, each once. A version's
// position in this list is its ordinal in the key's version graph.
func (a *analyzer) sortedVersions(k history.KeyID) []int {
	var vals []int
	if int(k) < len(a.vers) {
		vals = a.vers[k].vals
	}
	vers := make([]int, 0, len(vals)+1)
	vers = append(vers, nilVer)
	vers = append(vers, vals...)
	slices.Sort(vers)
	return slices.Compact(vers)
}

// sequentialEdges infers vi <x vj whenever one committed process touched
// key k at version vi in one transaction and at vj in a later one: the
// session's view of a sequentially consistent key must be monotone.
func (a *analyzer) sequentialEdges(k history.KeyID, oks []op.Op, addEdge func(u, v int)) {
	kname := a.in.Key(k)
	type touch struct {
		process     int
		index       int
		first, last int
		ok          bool
	}
	byProcess := map[int]touch{}
	// oks is in index order, so per-process iteration follows the
	// session order.
	for _, o := range oks {
		first, last, have := nilVer, nilVer, false
		for _, m := range o.Mops {
			if m.Key != kname {
				continue
			}
			var v int
			switch {
			case m.F == op.FWrite:
				v = m.Arg
			case m.F == op.FRead && m.RegKnown && m.RegNil:
				v = nilVer
			case m.F == op.FRead && m.RegKnown:
				v = m.Reg
			default:
				continue
			}
			if !have {
				first, have = v, true
			}
			last = v
		}
		if !have {
			continue
		}
		if prev, ok := byProcess[o.Process]; ok && prev.ok {
			addEdge(prev.last, first)
		}
		byProcess[o.Process] = touch{process: o.Process, index: o.Index, first: first, last: last, ok: true}
	}
}

// linearizableEdges infers vi <x vj whenever a committed transaction A
// finished touching k at version vi strictly before a committed
// transaction B began and first touched k at version vj. The sweep
// mirrors the real-time transitive reduction: it maintains the frontier
// of completed transactions not yet transitively covered.
func (a *analyzer) linearizableEdges(k history.KeyID, oks []op.Op, addEdge func(u, v int)) {
	kname := a.in.Key(k)
	type span struct {
		invoke, complete int
		first, last      int // versions; nilVer possible
		hasFirst         bool
	}
	var spans []span
	for _, o := range oks {
		first, last, have := nilVer, nilVer, false
		for _, m := range o.Mops {
			if m.Key != kname {
				continue
			}
			var v int
			switch {
			case m.F == op.FWrite:
				v = m.Arg
			case m.F == op.FRead && m.RegKnown && m.RegNil:
				v = nilVer
			case m.F == op.FRead && m.RegKnown:
				v = m.Reg
			default:
				continue
			}
			if !have {
				first, have = v, true
			}
			last = v
		}
		if !have {
			continue
		}
		sp := a.spanOf[o.Index]
		spans = append(spans, span{invoke: sp[0], complete: sp[1], first: first, last: last, hasFirst: true})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].invoke < spans[j].invoke })
	byComplete := make([]span, len(spans))
	copy(byComplete, spans)
	sort.Slice(byComplete, func(i, j int) bool { return byComplete[i].complete < byComplete[j].complete })

	var frontier []span
	ci := 0
	for _, t := range spans {
		for ci < len(byComplete) && byComplete[ci].complete < t.invoke {
			c := byComplete[ci]
			ci++
			kept := frontier[:0]
			for _, f := range frontier {
				if f.complete >= c.invoke {
					kept = append(kept, f)
				}
			}
			frontier = append(kept, c)
		}
		for _, f := range frontier {
			addEdge(f.last, t.first)
		}
	}
}

// versionGraph is one key's inferred version order over dense ordinals:
// ordinal i stands for version vers[i], and vers is ascending, so
// ordinal 0 is nilVer and walking ordinals walks versions in value
// order. Edges are stored compressed by source: the direct successors
// of i are succ[start[i]:start[i+1]], ascending and without duplicates.
type versionGraph struct {
	vers  []int
	start []int32
	succ  []int32
}

// newVersionGraph builds the graph over vers from edges packed as
// from<<32 | to ordinals, in any order and with duplicates.
func newVersionGraph(vers []int, edges []uint64) *versionGraph {
	slices.Sort(edges)
	edges = slices.Compact(edges)
	g := &versionGraph{vers: vers, start: make([]int32, len(vers)+1), succ: make([]int32, len(edges))}
	for i, e := range edges {
		g.start[e>>32+1]++
		g.succ[i] = int32(uint32(e))
	}
	for i := 1; i < len(g.start); i++ {
		g.start[i] += g.start[i-1]
	}
	return g
}

func (g *versionGraph) succs(u int32) []int32 { return g.succ[g.start[u]:g.start[u+1]] }

// topoOrder returns the ordinals in a topological order (Kahn's
// algorithm), or false if the graph has a cycle.
func (g *versionGraph) topoOrder() ([]int32, bool) {
	n := len(g.vers)
	indeg := make([]int32, n)
	for _, v := range g.succ {
		indeg[v]++
	}
	order := make([]int32, 0, n)
	for u := range n {
		if indeg[u] == 0 {
			order = append(order, int32(u))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, v := range g.succs(order[i]) {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order, len(order) == n
}

// cyclicWitness returns a cycle of versions, or nil if the graph is
// acyclic. It is an iterative colored DFS taking roots and successors in
// ascending version order, so the same graph always yields the same
// witness.
func (g *versionGraph) cyclicWitness() []int {
	const (
		white = iota
		gray
		black
	)
	n := len(g.vers)
	color := make([]uint8, n)
	parent := make([]int32, n)
	type frame struct{ v, next int32 } // next indexes succ
	var stack []frame
	for root := range int32(n) {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{root, g.start[root]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == g.start[f.v+1] {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := g.succ[f.next]
			f.next++
			switch color[w] {
			case white:
				color[w] = gray
				parent[w] = f.v
				stack = append(stack, frame{w, g.start[w]})
			case gray:
				// A back edge f.v -> w closes the cycle w -> ... -> f.v -> w.
				cyc := []int{g.vers[w]}
				for at := f.v; at != w; at = parent[at] {
					cyc = append(cyc, g.vers[at])
				}
				slices.Reverse(cyc)
				return cyc
			}
		}
	}
	return nil
}

// reduce removes transitively implied edges from the acyclic graph, so
// that direct edges mean "next version"; topo is a topological order.
// Nodes are visited in reverse topological order, each accumulating a
// bitset row of the versions it reaches. A node's successors are taken
// in topological order, and one already in the row is reachable through
// an earlier successor, so its direct edge is implied. Each kept edge
// costs one row union: O(V·E/64) time and V²/64 words of rows.
func (g *versionGraph) reduce(topo []int32) {
	n := len(g.vers)
	words := (n + 63) / 64
	reach := make([]uint64, n*words)
	row := func(u int32) []uint64 { return reach[int(u)*words : (int(u)+1)*words] }
	pos := make([]int32, n)
	for i, u := range topo {
		pos[u] = int32(i)
	}
	keep := make([]bool, len(g.succ))
	var slots []int32
	for i := n - 1; i >= 0; i-- {
		u := topo[i]
		ru := row(u)
		slots = slots[:0]
		for e := g.start[u]; e < g.start[u+1]; e++ {
			slots = append(slots, e)
		}
		slices.SortFunc(slots, func(x, y int32) int { return cmp.Compare(pos[g.succ[x]], pos[g.succ[y]]) })
		for _, e := range slots {
			v := g.succ[e]
			if ru[v/64]&(1<<(v%64)) != 0 {
				continue
			}
			keep[e] = true
			ru[v/64] |= 1 << (v % 64)
			for w, bits := range row(v) {
				ru[w] |= bits
			}
		}
	}
	kept := int32(0)
	for u := range n {
		lo, hi := g.start[u], g.start[u+1]
		g.start[u] = kept
		for e := lo; e < hi; e++ {
			if keep[e] {
				g.succ[kept] = g.succ[e]
				kept++
			}
		}
	}
	g.start[n] = kept
	g.succ = g.succ[:kept]
}

// emitEdges explodes key k's reduced version order into ww and rw
// transaction dependencies, returning the direct version edges for
// reporting alongside the dependency edges. Versions are walked in
// ordinal (value) order, so the output order is deterministic.
func (a *analyzer) emitEdges(k history.KeyID, g *versionGraph) ([][2]string, []graph.Edge) {
	n := len(g.vers)
	writers := make([]int, n) // -1: no recoverable writer
	names := make([]string, n)
	for i, v := range g.vers {
		writers[i] = -1
		if w, ok := a.writer[verKey{k, v}]; ok {
			writers[i] = w
		}
		names[i] = verName(v)
	}
	edges := make([][2]string, 0, len(g.succ))
	var deps []graph.Edge
	for u := range int32(n) {
		succs := g.succs(u)
		if len(succs) == 0 {
			continue
		}
		readers := a.readersOf(k, g.vers[u])
		for _, v := range succs {
			edges = append(edges, [2]string{names[u], names[v]})
			wv := writers[v]
			if wv < 0 {
				continue
			}
			// ww: writer of u installed the version v's writer replaced.
			if u != 0 && writers[u] >= 0 {
				deps = append(deps, graph.Edge{From: writers[u], To: wv, Kind: graph.WW})
			}
			// rw: every reader of u anti-depends on the writer of its
			// successor v.
			for _, r := range readers {
				deps = append(deps, graph.Edge{From: r, To: wv, Kind: graph.RW})
			}
		}
	}
	return edges, deps
}

// readersOf returns ok transactions that read version v of key k, in
// index order; v may be nilVer.
func (a *analyzer) readersOf(k history.KeyID, v int) []int {
	if v != nilVer {
		return a.readers[verKey{k, v}]
	}
	if int(k) < len(a.vers) {
		return a.vers[k].nilReaders
	}
	return nil
}

// emitWR adds write-read dependencies, which need no version order: a
// reader of value v depends on v's unique writer.
func (a *analyzer) emitWR(g *graph.Graph) {
	var vks []verKey
	for vk := range a.readers {
		vks = append(vks, vk)
	}
	sort.Slice(vks, func(i, j int) bool {
		if vks[i].key != vks[j].key {
			return a.in.Less(vks[i].key, vks[j].key)
		}
		return vks[i].val < vks[j].val
	})
	for _, vk := range vks {
		w, ok := a.writer[vk]
		if !ok {
			continue
		}
		for _, r := range a.readers[vk] {
			g.AddEdge(w, r, graph.WR)
		}
	}
}

func verName(v int) string {
	if v == nilVer {
		return "nil"
	}
	return strconv.Itoa(v)
}

func formatVersionCycle(cyc []int) string {
	parts := make([]string, 0, len(cyc)+1)
	for _, v := range cyc {
		parts = append(parts, verName(v))
	}
	parts = append(parts, verName(cyc[0]))
	return strings.Join(parts, " < ")
}

// keys lists every key with an interned version or a committed op, in
// key-name order.
func (a *analyzer) keys() []history.KeyID {
	var out []history.KeyID
	for k := range a.in.Len() {
		if (k < len(a.vers) && len(a.vers[k].vals) > 0) || (k < len(a.byKey) && len(a.byKey[k]) > 0) {
			out = append(out, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(out)
	return out
}

func (a *analyzer) report(an anomaly.Anomaly) {
	a.anomalies = append(a.anomalies, an)
}
