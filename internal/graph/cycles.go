package graph

import (
	"slices"
	"strings"

	"repro/internal/par"
)

// Step is one edge of a cycle witness: From depends-on... To via the kinds
// in Label; Via is the single kind the search actually used, which is what
// classification and explanation report.
type Step struct {
	From, To int
	Label    KindSet
	Via      Kind
}

// Cycle is a closed walk witnessing an anomaly: Steps[i].To ==
// Steps[i+1].From and the last step returns to Steps[0].From.
type Cycle struct {
	Steps []Step
}

// Nodes returns the transaction ids around the cycle, starting at
// Steps[0].From, without repeating the first node at the end.
func (c Cycle) Nodes() []int {
	out := make([]int, len(c.Steps))
	for i, s := range c.Steps {
		out[i] = s.From
	}
	return out
}

// CountVia returns how many steps were traversed via kind k.
func (c Cycle) CountVia(k Kind) int {
	n := 0
	for _, s := range c.Steps {
		if s.Via == k {
			n++
		}
	}
	return n
}

// String renders the cycle as "T1 -ww-> T2 -rw-> T1".
func (c Cycle) String() string {
	if len(c.Steps) == 0 {
		return "(empty cycle)"
	}
	var b strings.Builder
	for _, s := range c.Steps {
		b.WriteString("T")
		b.WriteString(itoa(s.From))
		b.WriteString(" -")
		b.WriteString(s.Via.String())
		b.WriteString("-> ")
	}
	b.WriteString("T")
	b.WriteString(itoa(c.Steps[0].From))
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// FindCycles searches the subgraph of edges intersecting mask and returns
// one short cycle per strongly connected component, found by breadth-first
// search from that component's smallest node. This implements the plain
// cycle searches of §6 (G0 with mask=ww; G1c with mask=ww|wr; G2 candidates
// with the full mask).
//
// The per-component searches fan out across p workers (p <= 0 meaning
// one per CPU). Components are independent, so each search runs in
// isolation; results are collected in component order, making the
// output identical at every parallelism level.
func (f *Frozen) FindCycles(mask KindSet, p int) []Cycle {
	s := plainSearch(mask)
	return f.perComponent(f.components(s.mask), s, p)
}

// FindCyclesWithExactlyOne returns, per SCC, a cycle containing exactly one
// edge traversed via kind one, with every other step traversed via rest.
// This is the paper's G-single search: partition the graph, follow exactly
// one read-write edge, then complete the cycle using only write-write and
// write-read edges. Per-component searches fan out as in FindCycles.
func (f *Frozen) FindCyclesWithExactlyOne(one Kind, rest KindSet, p int) []Cycle {
	s := exactlyOneSearch(one, rest)
	return f.perComponent(f.components(s.mask), s, p)
}

// FindCyclesWithAtLeastOne returns, per SCC of the masked graph, a cycle
// containing at least one edge of kind req (the G2 search: one or more
// anti-dependency edges, with any other dependencies completing the
// cycle). Per-component searches fan out as in FindCycles.
func (f *Frozen) FindCyclesWithAtLeastOne(req Kind, mask KindSet, p int) []Cycle {
	s := atLeastOneSearch(req, mask)
	return f.perComponent(f.components(s.mask), s, p)
}

// A search is one of the §6 cycle searches: the mask whose components
// it examines, and the witness search run inside each component.
type search struct {
	mask KindSet
	find func(*sccSearch) (Cycle, bool)
}

// plainSearch closes a shortest loop through the component's smallest
// node.
func plainSearch(mask KindSet) search {
	return search{mask, func(s *sccSearch) (Cycle, bool) { return s.bfs(0, 0, mask, nil) }}
}

// exactlyOneSearch takes one edge of kind one and closes the cycle
// over rest alone.
func exactlyOneSearch(one Kind, rest KindSet) search {
	return search{one.Mask() | rest, func(s *sccSearch) (Cycle, bool) { return s.through(one, rest) }}
}

// atLeastOneSearch takes one edge of kind req and closes the cycle over
// any edge of the full mask, req included.
func atLeastOneSearch(req Kind, mask KindSet) search {
	full := req.Mask() | mask
	return search{full, func(s *sccSearch) (Cycle, bool) { return s.through(req, full) }}
}

// perComponent runs s in every component of comps (s.mask's SCCs)
// across p workers, keeping the hits in component order.
func (f *Frozen) perComponent(comps [][]int32, s search, p int) []Cycle {
	found := par.Map(p, len(comps), func(i int) Cycle {
		c, _ := s.find(f.newSCCSearch(comps[i]))
		return c
	})
	var out []Cycle
	for _, c := range found {
		if len(c.Steps) > 0 { // a miss is the empty cycle
			out = append(out, c)
		}
	}
	return out
}

// sccSearch is the scratch of the searches inside one component, sized
// to the component, not the graph: membership is a binary search of the
// sorted member rows, and visited/parent are indexed by member position.
// One component's searches share it, resetting only what they touched.
type sccSearch struct {
	f       *Frozen
	members []int32 // ascending row indices
	visited []bool
	parent  []cameFrom
	queue   []int32
}

// cameFrom records the BFS tree edge into a member.
type cameFrom struct {
	prev int32 // member position
	lab  KindSet
	via  Kind
}

func (f *Frozen) newSCCSearch(members []int32) *sccSearch {
	return &sccSearch{
		f:       f,
		members: members,
		visited: make([]bool, len(members)),
		parent:  make([]cameFrom, len(members)),
	}
}

// position returns row's member position, or -1 outside the component.
func (s *sccSearch) position(row int32) int32 {
	i, ok := slices.BinarySearch(s.members, row)
	if !ok {
		return -1
	}
	return int32(i)
}

// node returns the external id of the member at position i.
func (s *sccSearch) node(i int32) int { return s.f.nodes[s.members[i]] }

// through returns the first cycle, scanning members and then their
// k-edges in ascending order, that leaves a member over a k-edge and
// returns to it over edges intersecting rest.
func (s *sccSearch) through(k Kind, rest KindSet) (Cycle, bool) {
	f := s.f
	for u := range s.members {
		row := s.members[u]
		for e := f.rowStart[row]; e < f.rowStart[row+1]; e++ {
			if !f.ks[e].Has(k) {
				continue
			}
			v := s.position(f.to[e])
			if v < 0 {
				continue
			}
			first := Step{From: s.node(int32(u)), To: s.node(v), Label: f.ks[e], Via: k}
			if c, ok := s.bfs(v, int32(u), rest, []Step{first}); ok {
				return c, true
			}
		}
	}
	return Cycle{}, false
}

// bfs finds a shortest path from member start to member goal using edges
// intersecting mask, then closes it into a cycle after the prefix steps
// (whose last step must end at start). When start == goal the search
// looks for a non-trivial loop back to goal. Neighbors are visited in
// row order, i.e. ascending external id.
func (s *sccSearch) bfs(start, goal int32, mask KindSet, prefix []Step) (Cycle, bool) {
	f := s.f
	s.queue = append(s.queue[:0], start)
	s.visited[start] = true
	reached := false
	for head := 0; head < len(s.queue) && !reached; head++ {
		u := s.queue[head]
		row := s.members[u]
		for e := f.rowStart[row]; e < f.rowStart[row+1]; e++ {
			label := f.ks[e]
			if !label.Intersects(mask) {
				continue
			}
			v := s.position(f.to[e])
			if v < 0 {
				continue
			}
			if v == goal {
				s.parent[goal] = cameFrom{prev: u, lab: label, via: firstKind(label, mask)}
				reached = true
				break
			}
			if !s.visited[v] {
				s.visited[v] = true
				s.parent[v] = cameFrom{prev: u, lab: label, via: firstKind(label, mask)}
				s.queue = append(s.queue, v)
			}
		}
	}
	for _, v := range s.queue {
		s.visited[v] = false
	}
	if !reached {
		return Cycle{}, false
	}
	// Walk goal <- ... <- start twice: once to size the cycle, once to
	// fill it back to front.
	hops := 0
	for at := goal; ; {
		hops++
		if at = s.parent[at].prev; at == start {
			break
		}
	}
	steps := make([]Step, len(prefix)+hops)
	copy(steps, prefix)
	at := goal
	for i := len(steps) - 1; i >= len(prefix); i-- {
		cf := s.parent[at]
		steps[i] = Step{From: s.node(cf.prev), To: s.node(at), Label: cf.lab, Via: cf.via}
		at = cf.prev
	}
	return Cycle{Steps: steps}, true
}

// firstKind picks the lowest-numbered kind present in both label and mask.
// Dependency kinds are declared before ordering kinds, so explanations
// prefer ww/wr/rw labels over process/realtime when an edge carries both.
func firstKind(label, mask KindSet) Kind {
	for k := Kind(0); k < numKinds; k++ {
		if label.Has(k) && mask.Has(k) {
			return k
		}
	}
	return 0
}
