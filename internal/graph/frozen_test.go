package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomEdges builds a reproducible random edge list over n nodes.
func randomEdges(r *rand.Rand, n, m int) []Edge {
	out := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		out = append(out, Edge{From: a, To: b, Kind: Kind(r.Intn(3))}) // ww/wr/rw
	}
	return out
}

// sortedEdges canonicalizes an edge list for comparison.
func sortedEdges(es []Edge) []Edge {
	out := append([]Edge(nil), es...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// graphEdges extracts g's edges restricted to the given node set.
func graphEdges(g *Graph, in map[int]bool) []Edge {
	var out []Edge
	for _, a := range g.Nodes() {
		if !in[a] {
			continue
		}
		g.Out(a, ^KindSet(0), func(b int, label KindSet) {
			if !in[b] {
				return
			}
			for _, k := range label.Kinds() {
				out = append(out, Edge{From: a, To: b, Kind: k})
			}
		})
	}
	return sortedEdges(out)
}

func TestFrozenMatchesSubgraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := New()
		g.AddEdges(randomEdges(r, 30, 120))
		var sub []int
		in := map[int]bool{}
		for n := 0; n < 30; n += 2 {
			if g.HasNode(n) {
				sub = append(sub, n)
				in[n] = true
			}
		}
		f := NewFrozen(g, sub)
		if len(f.nodes) != len(sub) {
			t.Fatalf("trial %d: frozen has %d nodes, subgraph %d", trial, len(f.nodes), len(sub))
		}
		want := graphEdges(g, in)
		if got := sortedEdges(f.Edges()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: frozen edges differ\n got %v\nwant %v", trial, got, want)
		}
		// Cycle search over the frozen region matches the reference
		// search over the same induced subgraph.
		ref := New()
		for _, n := range sub {
			ref.Ensure(n)
		}
		ref.AddEdges(want)
		got, _ := f.AnomalousCycles(0, 1)
		if w := ref.refAnomalousCycles(0, 1); !reflect.DeepEqual(got, w) {
			t.Fatalf("trial %d: frozen cycles %v, want %v", trial, got, w)
		}
		// The whole-graph freeze is the induced subgraph on every node.
		whole, all := g.Freeze(), NewFrozen(g, g.Nodes())
		if !reflect.DeepEqual(whole.Nodes(), all.Nodes()) || !reflect.DeepEqual(whole.Edges(), all.Edges()) {
			t.Fatalf("trial %d: Freeze differs from NewFrozen over every node", trial)
		}
	}
}

// searchExtras are the extra-order masks the reference comparisons run
// every search with.
var searchExtras = []KindSet{0, Process.Mask(), Realtime.Mask(), Timestamp.Mask(), KSOrders, KSOrders | Timestamp.Mask()}

// checkAgainstReference runs every Frozen search over g.Freeze() at
// every mask AnomalousCycles uses for extra, and demands results equal
// to the map-based reference's, cycle steps included.
func checkAgainstReference(t *testing.T, g *Graph, extra KindSet, p int) {
	t.Helper()
	f := g.Freeze()
	for _, mask := range []KindSet{KSWW | extra, KSWWWR | extra, KSDep | extra} {
		if got, want := f.SCCs(mask), g.refSortedSCCs(mask); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("SCCs(%v) = %v, want %v", mask, got, want)
		}
		if got, want := f.FindCycles(mask, p), g.refFindCyclesP(mask, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("FindCycles(%v, %d) = %v, want %v", mask, p, got, want)
		}
	}
	if got, want := f.FindCyclesWithExactlyOne(RW, KSWWWR|extra, p), g.refFindCyclesWithExactlyOneP(RW, KSWWWR|extra, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("FindCyclesWithExactlyOne(extra %v, %d) = %v, want %v", extra, p, got, want)
	}
	if got, want := f.FindCyclesWithAtLeastOne(RW, KSDep|extra, p), g.refFindCyclesWithAtLeastOneP(RW, KSDep|extra, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("FindCyclesWithAtLeastOne(extra %v, %d) = %v, want %v", extra, p, got, want)
	}
	got, sccs := f.AnomalousCycles(extra, p)
	if want := g.refAnomalousCycles(extra, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("AnomalousCycles(%v, %d) = %v, want %v", extra, p, got, want)
	}
	if want := len(g.refSCCs(KSDep | extra)); sccs != want {
		t.Fatalf("AnomalousCycles(%v, %d) counted %d components, want %d", extra, p, sccs, want)
	}
}

// TestFrozenSearchMatchesReference compares the CSR searches with the
// map-based reference on random graphs whose nodes arrive out of id
// order (so freezing must re-sort rows), with every edge kind present.
func TestFrozenSearchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(30)
		g := New()
		for e := r.Intn(4 * n); e > 0; e-- {
			a, b := 7*r.Intn(n)-40, 7*r.Intn(n)-40
			g.AddEdge(a, b, Kind(r.Intn(numKinds)))
		}
		for _, extra := range searchExtras {
			for _, p := range []int{1, 4} {
				checkAgainstReference(t, g, extra, p)
			}
		}
	}
}

// FuzzCycleSearch decodes bytes into an edge list — the first byte
// picks the extra orders, then (from, to, kind) triples — and demands
// the Frozen searches agree with the reference.
func FuzzCycleSearch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 1, 0})
	f.Add([]byte{0, 1, 2, 2, 2, 1, 0, 2, 3, 1, 3, 1, 2})
	f.Add([]byte{0x18, 1, 2, 2, 2, 3, 3, 3, 1, 4, 3, 4, 6})
	f.Add([]byte{0x58, 5, 4, 2, 4, 3, 0, 3, 5, 1, 5, 3, 2, 3, 4, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		extra := KindSet(b[0]) & (KSOrders | Timestamp.Mask())
		g := New()
		for b = b[1:]; len(b) >= 3; b = b[3:] {
			g.AddEdge(int(b[0]%32), int(b[1]%32), Kind(b[2]%numKinds))
		}
		checkAgainstReference(t, g, extra, 1)
		checkAgainstReference(t, g, extra, 2)
	})
}

func TestFrozenDedupsAndIgnoresUnknownNodes(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, WW)
	g.AddEdge(2, 1, WW)
	f := NewFrozen(g, []int{2, 1, 2, 99})
	if !reflect.DeepEqual(f.Nodes(), []int{1, 2}) {
		t.Fatalf("nodes = %v, want [1 2]", f.Nodes())
	}
	if len(f.to) != 2 {
		t.Fatalf("edges = %d, want 2", len(f.to))
	}
}

func TestIncrRetire(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		before := randomEdges(r, 24, 80)
		after := randomEdges(r, 24, 60)
		keep := func(n int) bool { return n >= 8 }

		x := NewIncr(KSDep)
		x.AddEdges(before)
		x.DirtySCCs() // drain, as a session would before retiring
		x.Retire(keep)

		// The rebuilt incr behaves like a fresh one fed only live edges,
		// both immediately and after further insertions.
		fresh := NewIncr(KSDep)
		for _, e := range before {
			if keep(e.From) && keep(e.To) {
				fresh.AddEdge(e.From, e.To, e.Kind)
			}
		}
		for _, e := range after {
			if keep(e.From) && keep(e.To) {
				x.AddEdge(e.From, e.To, e.Kind)
				fresh.AddEdge(e.From, e.To, e.Kind)
			}
		}
		if !sccSetsEqual(x.SCCs(), fresh.SCCs()) {
			t.Fatalf("trial %d: retired incr SCCs diverge from fresh rebuild", trial)
		}
		for _, n := range x.Graph().Nodes() {
			if !keep(n) {
				t.Fatalf("trial %d: retired node %d still in live graph", trial, n)
			}
		}
	}
}
