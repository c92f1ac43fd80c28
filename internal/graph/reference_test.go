package graph

// The map-based Graph searches the Frozen searches replaced, kept as the
// reference implementation TestFrozenSearchMatchesReference and
// FuzzCycleSearch compare against: Tarjan over sorted adjacency slices
// and BFS cycle searches whose member sets, visited sets and parent
// links are maps, each neighbor list sorted per visit by OutSorted.
// Apart from the ref prefix on every name they are the code as it was.

import (
	"sort"

	"repro/internal/par"
)

// refAnomalousCycles runs the §6 searches, from most to least specific,
// deduplicating cycles that multiple searches find: G0 over ww edges,
// G1c over ww+wr, G-single with exactly one rw, and G2 with one or more
// rw. Extra ordering edges (process, realtime, timestamp) participate
// in every search; anomaly classification downgrades cycles that need
// them to the -process / -realtime / -timestamp variants.
//
// The four searches are independent reads of the finished graph, so
// they run concurrently (each additionally fanning out per SCC);
// deduplication walks the results in fixed search order, keeping the
// report identical at every parallelism level. The worker budget is
// split across the two levels — outer searches × inner per-SCC workers
// <= p — so the search never runs more goroutines than p allows.
func (g *Graph) refAnomalousCycles(extra KindSet, p int) []Cycle {
	budget := par.Procs(p)
	outer := budget
	if outer > 4 {
		outer = 4
	}
	inner := budget / outer
	if inner < 1 {
		inner = 1
	}
	searches := []func() []Cycle{
		func() []Cycle { return g.refFindCyclesP(KSWW|extra, inner) },
		func() []Cycle { return g.refFindCyclesP(KSWWWR|extra, inner) },
		func() []Cycle { return g.refFindCyclesWithExactlyOneP(RW, KSWWWR|extra, inner) },
		func() []Cycle { return g.refFindCyclesWithAtLeastOneP(RW, KSDep|extra, inner) },
	}
	found := par.Map(outer, len(searches), func(i int) []Cycle { return searches[i]() })

	seen := map[cycleSig]bool{}
	var out []Cycle
	for _, cs := range found {
		for _, c := range cs {
			sig := sigOf(c)
			if !seen[sig] {
				seen[sig] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// refSCCs computes the strongly connected components of the subgraph induced
// by edges whose label intersects mask, using an iterative Tarjan so that
// histories of hundreds of thousands of transactions don't overflow the
// goroutine stack. Components are returned as slices of external node ids;
// only components that can contain a cycle (size ≥ 2) are returned, since
// self-edges are never stored.
//
// Tarjan's algorithm runs in O(nodes + edges) time (§2 of the paper cites
// this as the reason cycle detection is tractable).
func (g *Graph) refSCCs(mask KindSet) [][]int {
	n := len(g.nodes)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		next    int32
		stack   []int32 // Tarjan's component stack
		sccs    [][]int
		callers []refFrame // explicit DFS stack
	)

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callers = callers[:0]
		callers = append(callers, refFrame{v: int32(root)})
		for len(callers) > 0 {
			f := &callers[len(callers)-1]
			v := f.v
			if !f.started {
				// First visit. The refFrame walks the node's adjacency slice
				// directly, filtering by mask inline — no neighbor list is
				// materialized.
				f.started = true
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
				f.out = g.adj[v]
			}
			descended := false
			for f.i < len(f.out) {
				e := f.out[f.i]
				f.i++
				if !e.ks.Intersects(mask) {
					continue
				}
				w := e.to
				if index[w] == unvisited {
					// Descend; the append may relocate callers, so f must
					// not be touched again this iteration.
					callers = append(callers, refFrame{v: w})
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
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, g.nodes[w])
					if w == v {
						break
					}
				}
				if len(comp) >= 2 {
					sccs = append(sccs, comp)
				}
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
	return sccs
}

type refFrame struct {
	v       int32
	out     []halfEdge
	i       int
	started bool
}

// refFindCycles searches the subgraph of edges intersecting mask and returns
// one short cycle per strongly connected component, found by breadth-first
// search from that component's smallest node. This implements the plain
// cycle searches of §6 (G0 with mask=ww; G1c with mask=ww|wr; G2 candidates
// with the full mask).
func (g *Graph) refFindCycles(mask KindSet) []Cycle {
	return g.refFindCyclesP(mask, 1)
}

// refFindCyclesP is refFindCycles with the per-SCC searches fanned out across p
// workers (p <= 0 meaning one per CPU). Components are independent, so
// each search runs in isolation; results are collected in sorted-SCC
// order, making the output identical at every parallelism level.
func (g *Graph) refFindCyclesP(mask KindSet, p int) []Cycle {
	sccs := g.refSortedSCCs(mask)
	return refGatherCycles(par.Map(p, len(sccs), func(i int) refFoundCycle {
		scc := sccs[i]
		c, ok := g.refBfsCycle(scc[0], scc[0], mask, refMemberSet(scc), Step{})
		return refFoundCycle{c, ok}
	}))
}

// refFoundCycle is one per-SCC search outcome; refGatherCycles keeps the hits
// in component order.
type refFoundCycle struct {
	c  Cycle
	ok bool
}

func refGatherCycles(found []refFoundCycle) []Cycle {
	var out []Cycle
	for _, f := range found {
		if f.ok {
			out = append(out, f.c)
		}
	}
	return out
}

// refFindCyclesWithExactlyOne returns, per SCC, a cycle containing exactly one
// edge traversed via kind one, with every other step traversed via rest.
// This is the paper's G-single search: partition the graph, follow exactly
// one read-write edge, then complete the cycle using only write-write and
// write-read edges.
func (g *Graph) refFindCyclesWithExactlyOne(one Kind, rest KindSet) []Cycle {
	return g.refFindCyclesWithExactlyOneP(one, rest, 1)
}

// refFindCyclesWithExactlyOneP is refFindCyclesWithExactlyOne with per-SCC
// searches fanned out across p workers; see refFindCyclesP.
func (g *Graph) refFindCyclesWithExactlyOneP(one Kind, rest KindSet, p int) []Cycle {
	full := one.Mask() | rest
	sccs := g.refSortedSCCs(full)
	return refGatherCycles(par.Map(p, len(sccs), func(i int) refFoundCycle {
		scc := sccs[i]
		c, ok := g.refCycleWithOne(scc, refMemberSet(scc), one, rest)
		return refFoundCycle{c, ok}
	}))
}

func (g *Graph) refCycleWithOne(scc []int, in map[int]bool, one Kind, rest KindSet) (Cycle, bool) {
	for _, u := range scc {
		var found Cycle
		ok := false
		g.OutSorted(u, one.Mask(), func(v int, label KindSet) {
			if ok || !in[v] {
				return
			}
			first := Step{From: u, To: v, Label: label, Via: one}
			if v == u {
				return // self-edges are never stored, but be safe
			}
			if c, hit := g.refBfsCycle(v, u, rest, in, first); hit {
				found, ok = c, true
			}
		})
		if ok {
			return found, true
		}
	}
	return Cycle{}, false
}

// refFindCyclesWithAtLeastOne returns, per SCC of the masked graph, a cycle
// containing at least one edge of kind req (the G2 search: one or more
// anti-dependency edges, with any other dependencies completing the cycle).
func (g *Graph) refFindCyclesWithAtLeastOne(req Kind, mask KindSet) []Cycle {
	return g.refFindCyclesWithAtLeastOneP(req, mask, 1)
}

// refFindCyclesWithAtLeastOneP is refFindCyclesWithAtLeastOne with per-SCC
// searches fanned out across p workers; see refFindCyclesP.
func (g *Graph) refFindCyclesWithAtLeastOneP(req Kind, mask KindSet, p int) []Cycle {
	full := req.Mask() | mask
	sccs := g.refSortedSCCs(full)
	return refGatherCycles(par.Map(p, len(sccs), func(i int) refFoundCycle {
		scc := sccs[i]
		in := refMemberSet(scc)
		var out refFoundCycle
		for _, u := range scc {
			if out.ok {
				break
			}
			g.OutSorted(u, req.Mask(), func(v int, label KindSet) {
				if out.ok || !in[v] {
					return
				}
				first := Step{From: u, To: v, Label: label, Via: req}
				if c, hit := g.refBfsCycle(v, u, full, in, first); hit {
					out = refFoundCycle{c, true}
				}
			})
		}
		return out
	}))
}

// refBfsCycle finds a shortest path from start to goal using edges
// intersecting mask and restricted to nodes in the member set, then closes
// it into a cycle. If prefix is a non-zero Step, it is prepended (its From
// must be goal and its To must be start). When start == goal the search
// looks for a non-trivial loop back to goal.
func (g *Graph) refBfsCycle(start, goal int, mask KindSet, in map[int]bool, prefix Step) (Cycle, bool) {
	type cameFrom struct {
		prev int
		via  Kind
		lab  KindSet
	}
	parent := map[int]cameFrom{}
	queue := []int{start}
	visited := map[int]bool{start: true}
	reached := false
	for len(queue) > 0 && !reached {
		u := queue[0]
		queue = queue[1:]
		g.OutSorted(u, mask, func(v int, label KindSet) {
			if reached || !in[v] {
				return
			}
			if v == goal {
				parent[goal] = cameFrom{prev: u, via: refFirstKind(label, mask), lab: label}
				reached = true
				return
			}
			if !visited[v] {
				visited[v] = true
				parent[v] = cameFrom{prev: u, via: refFirstKind(label, mask), lab: label}
				queue = append(queue, v)
			}
		})
	}
	if !reached {
		return Cycle{}, false
	}
	// Reconstruct goal <- ... <- start.
	var rev []Step
	at := goal
	for {
		cf := parent[at]
		rev = append(rev, Step{From: cf.prev, To: at, Label: cf.lab, Via: cf.via})
		at = cf.prev
		if at == start {
			break
		}
	}
	steps := make([]Step, 0, len(rev)+1)
	if prefix.From != prefix.To || prefix.Label != 0 {
		steps = append(steps, prefix)
	}
	for i := len(rev) - 1; i >= 0; i-- {
		steps = append(steps, rev[i])
	}
	return Cycle{Steps: steps}, true
}

// refFirstKind picks the lowest-numbered kind present in both label and mask.
// Dependency kinds are declared before ordering kinds, so explanations
// prefer ww/wr/rw labels over process/realtime when an edge carries both.
func refFirstKind(label, mask KindSet) Kind {
	for k := Kind(0); k < numKinds; k++ {
		if label.Has(k) && mask.Has(k) {
			return k
		}
	}
	return 0
}

func (g *Graph) refSortedSCCs(mask KindSet) [][]int {
	sccs := g.refSCCs(mask)
	for _, scc := range sccs {
		sort.Ints(scc)
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

func refMemberSet(nodes []int) map[int]bool {
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	return in
}
