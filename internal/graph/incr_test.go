package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// sccSetsEqual compares two component partitions (each a list of sorted
// node slices) as sets of sets.
func sccSetsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(scc []int) string {
		s := ""
		for _, n := range scc {
			s += fmt.Sprintf("%d,", n)
		}
		return s
	}
	set := map[string]bool{}
	for _, scc := range a {
		set[key(scc)] = true
	}
	for _, scc := range b {
		if !set[key(scc)] {
			return false
		}
	}
	return true
}

// checkOrder verifies the maintained topological invariant: every
// condensation edge points from a lower-ordered root to a higher one.
func checkOrder(t *testing.T, x *Incr) {
	t.Helper()
	for r, outs := range x.out {
		if x.find(r) != r {
			t.Fatalf("condensation adjacency keyed by non-root %d", r)
		}
		for nb := range outs {
			if x.find(nb) != nb {
				t.Fatalf("condensation edge %d->%d targets non-root", r, nb)
			}
			if x.ord[r] >= x.ord[nb] {
				t.Fatalf("order violated: edge %d->%d but ord %d >= %d", r, nb, x.ord[r], x.ord[nb])
			}
		}
	}
}

// TestIncrMatchesTarjan inserts random edges one at a time and checks
// the incrementally maintained partition against a fresh Tarjan run —
// and the Pearce-Kelly order invariant — after every insertion. Sparse
// and dense regimes both: the sparse one exercises long merge chains,
// the dense one repeated intra-component insertion.
func TestIncrMatchesTarjan(t *testing.T) {
	for _, nodes := range []int{20, 60, 200} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := NewIncr(KSDep)
			for i := 0; i < 500; i++ {
				a, b := rng.Intn(nodes), rng.Intn(nodes)
				k := Kind(rng.Intn(3)) // WW, WR, RW
				x.AddEdge(a, b, k)
				got := x.SCCs()
				want := x.Graph().Freeze().SCCs(KSDep)
				if !sccSetsEqual(got, want) {
					t.Fatalf("nodes %d seed %d, after %d edges (+%d->%d): incr %v, tarjan %v",
						nodes, seed, i+1, a, b, got, want)
				}
				checkOrder(t, x)
			}
		}
	}
}

// TestIncrDirtyTracking checks that DirtySCCs reports exactly the
// components new edges touched, and drains.
func TestIncrDirtyTracking(t *testing.T) {
	x := NewIncr(KSDep)
	x.AddEdge(1, 2, WW)
	x.AddEdge(2, 1, WW)
	dirty := x.DirtySCCs()
	if len(dirty) != 1 || len(dirty[0]) != 2 {
		t.Fatalf("expected one dirty 2-cycle, got %v", dirty)
	}
	if d := x.DirtySCCs(); d != nil {
		t.Fatalf("dirty set should drain, got %v", d)
	}
	// An unrelated acyclic edge dirties nothing.
	x.AddEdge(3, 4, WR)
	if d := x.DirtySCCs(); d != nil {
		t.Fatalf("acyclic insertion should not dirty, got %v", d)
	}
	// Re-adding an existing edge is a no-op.
	x.AddEdge(1, 2, WW)
	if d := x.DirtySCCs(); d != nil {
		t.Fatalf("idempotent insertion should not dirty, got %v", d)
	}
	// A new edge kind inside the cyclic component re-dirties it.
	x.AddEdge(1, 2, RW)
	if d := x.DirtySCCs(); len(d) != 1 {
		t.Fatalf("intra-component edge should dirty its component, got %v", d)
	}
	// Closing a long path merges every component on it.
	x.AddEdge(4, 5, WW)
	x.AddEdge(5, 6, WW)
	x.AddEdge(6, 3, WW)
	dirty = x.DirtySCCs()
	if len(dirty) != 1 || len(dirty[0]) != 4 {
		t.Fatalf("expected merged 4-node component, got %v", dirty)
	}
}

// TestIncrMergesThroughIntermediates exercises the condensation
// reachability: closing a cycle through components that are themselves
// multi-node must swallow them all.
func TestIncrMergesThroughIntermediates(t *testing.T) {
	x := NewIncr(KSDep)
	// Two 2-cycles linked by a path, then close the loop.
	x.AddEdge(0, 1, WW)
	x.AddEdge(1, 0, WW)
	x.AddEdge(10, 11, WW)
	x.AddEdge(11, 10, WW)
	x.AddEdge(1, 10, WR)
	x.DirtySCCs()
	x.AddEdge(11, 0, RW)
	sccs := x.SCCs()
	if len(sccs) != 1 || len(sccs[0]) != 4 {
		t.Fatalf("expected one 4-node component, got %v", sccs)
	}
	want := x.Graph().Freeze().SCCs(KSDep)
	if !sccSetsEqual(sccs, want) {
		t.Fatalf("incr %v != tarjan %v", sccs, want)
	}
}
