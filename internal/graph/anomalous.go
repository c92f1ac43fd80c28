package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/par"
)

// AnomalousCycles runs the §6 searches, from most to least specific,
// deduplicating cycles that multiple searches find: G0 over ww edges,
// G1c over ww+wr, G-single with exactly one rw, and G2 with one or more
// rw. Extra ordering edges (process, realtime, timestamp) participate
// in every search; anomaly classification downgrades cycles that need
// them to the -process / -realtime / -timestamp variants.
//
// Each distinct search mask gets one Tarjan pass: G-single and G2 both
// search the components of ww|wr|rw plus extra, so three passes cover
// the four searches. depSCCs is the number of those ww|wr|rw components
// of size ≥ 2 — the count a report's Stats carries — read from the same
// pass.
//
// The passes, and then the four searches, are independent reads of the
// frozen graph, so they run concurrently (each search additionally
// fanning out per component); deduplication walks the results in fixed
// search order, keeping the report identical at every parallelism
// level. The worker budget is split across the two levels — outer
// searches × inner per-component workers <= p — so the search never
// runs more goroutines than p allows.
//
// Both the batch checker and the streaming sessions call this: the
// batch path over the whole graph, the streaming path over the induced
// subgraph of the components a chunk dirtied.
func (f *Frozen) AnomalousCycles(extra KindSet, p int) (cycles []Cycle, depSCCs int) {
	budget := par.Procs(p)
	outer := min(budget, 4)
	inner := max(budget/outer, 1)
	searches := []search{
		plainSearch(KSWW | extra),
		plainSearch(KSWWWR | extra),
		exactlyOneSearch(RW, KSWWWR|extra),
		atLeastOneSearch(RW, KSDep|extra),
	}
	var masks []KindSet
	for _, s := range searches {
		if !slices.Contains(masks, s.mask) {
			masks = append(masks, s.mask)
		}
	}
	passes := par.Map(outer, len(masks), func(i int) [][]int32 { return f.components(masks[i]) })
	compsOf := func(mask KindSet) [][]int32 { return passes[slices.Index(masks, mask)] }
	found := par.Map(outer, len(searches), func(i int) []Cycle {
		return f.perComponent(compsOf(searches[i].mask), searches[i], inner)
	})

	seen := map[cycleSig]bool{}
	for _, cs := range found {
		for _, c := range cs {
			sig := sigOf(c)
			if !seen[sig] {
				seen[sig] = true
				cycles = append(cycles, c)
			}
		}
	}
	return cycles, len(compsOf(KSDep | extra))
}

// AnomalousCycles is g.Freeze().AnomalousCycles without the component
// count. It stays only because the benchmark's traced pipeline
// (e2ebench/trace.go) calls it; the checker itself freezes once and
// searches the Frozen.
func (g *Graph) AnomalousCycles(extra KindSet, p int) []Cycle {
	cycles, _ := g.Freeze().AnomalousCycles(extra, p)
	return cycles
}

// SCCs is g.Freeze().SCCs. It stays only because the benchmark's traced
// pipeline (e2ebench/trace.go) calls it.
func (g *Graph) SCCs(mask KindSet) [][]int { return g.Freeze().SCCs(mask) }

// cycleSig is a comparable canonical signature of a cycle's node set:
// the sorted nodes inline for cycles of up to eight steps, the string
// CycleKey as a spill otherwise. A struct key keeps the dedup on the
// SCC search hot path allocation-free, where CycleKey builds a string
// per candidate cycle.
type cycleSig struct {
	n     int
	nodes [8]int64
	spill string
}

// sigOf computes the comparable signature of c without allocating:
// each step's From node is insertion-sorted into the inline array,
// avoiding the slice Cycle.Nodes would allocate. Cycles longer than
// eight steps (rare: the searches return shortest witnesses) fall back
// to the spill string; n = -1 keeps spilled signatures from colliding
// with inline ones.
func sigOf(c Cycle) cycleSig {
	var s cycleSig
	if len(c.Steps) > len(s.nodes) {
		return cycleSig{n: -1, spill: CycleKey(c)}
	}
	s.n = len(c.Steps)
	for i, st := range c.Steps {
		v := int64(st.From)
		j := i
		for ; j > 0 && s.nodes[j-1] > v; j-- {
			s.nodes[j] = s.nodes[j-1]
		}
		s.nodes[j] = v
	}
	return s
}

// CycleKey canonicalizes a cycle by its sorted node set as a string;
// two witnesses over the same transactions are considered the same
// finding. The batch deduplication above uses the comparable cycleSig
// form of the same identity; the string form remains for the streaming
// sessions' "already surfaced" bookkeeping, whose keys mix cycle and
// non-cycle findings in one table.
func CycleKey(c Cycle) string {
	nodes := c.Nodes()
	sort.Ints(nodes)
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%d,", n)
	}
	return b.String()
}
