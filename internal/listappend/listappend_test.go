package listappend

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

func analyze(t *testing.T, ops ...op.Op) *Analysis {
	t.Helper()
	return Analyze(history.MustNew(ops), workload.Opts{})
}

func hasAnomaly(a *Analysis, typ anomaly.Type) bool {
	for _, an := range a.Anomalies {
		if an.Type == typ {
			return true
		}
	}
	return false
}

func anomalyCount(a *Analysis, typ anomaly.Type) int {
	n := 0
	for _, an := range a.Anomalies {
		if an.Type == typ {
			n++
		}
	}
	return n
}

// TestCleanSequentialHistory: a perfectly serializable history yields no
// anomalies and the expected dependency edges.
func TestCleanSequentialHistory(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 0, op.OK, op.Append("x", 2)),
		op.Txn(2, 0, op.OK, op.ReadList("x", []int{1, 2})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies on clean history: %v", a.Anomalies)
	}
	if !a.Graph.Label(0, 1).Has(graph.WW) {
		t.Error("missing ww edge T0 -> T1")
	}
	if !a.Graph.Label(1, 2).Has(graph.WR) {
		t.Error("missing wr edge T1 -> T2")
	}
	if got := a.VersionOrder("x"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("version order = %v", got)
	}
}

// TestSection3SetExampleOnLists mirrors the paper's §3 progression with
// lists: a read of the empty list anti-depends on the first writer.
func TestEmptyReadAntiDependency(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.ReadList("x", []int{})),
		op.Txn(1, 1, op.OK, op.Append("x", 1)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(0, 1).Has(graph.RW) {
		t.Error("read of [] should rw-depend on the first appender")
	}
	if !a.Graph.Label(1, 2).Has(graph.WR) {
		t.Error("reader of [1] should wr-depend on its writer")
	}
}

// TestTiDBGSingle reproduces the §7.1 TiDB read-skew trio (with a setup
// transaction providing the recoverable writers for elements 2 and 1).
//
//	T1: r(34, [2, 1]), append(36, 5), append(34, 4)
//	T2: append(34, 5)
//	T3: r(34, [2, 1, 5, 4])
//
// T1 did not observe T2's append of 5, so T2 rw-depends on T1; T3's read
// shows T1's 4 followed T2's 5, so T1 ww-depends on T2: G-single.
func TestTiDBGSingle(t *testing.T) {
	setup := op.Txn(0, 0, op.OK, op.Append("34", 2), op.Append("34", 1))
	t1 := op.Txn(1, 1, op.OK,
		op.ReadList("34", []int{2, 1}), op.Append("36", 5), op.Append("34", 4))
	t2 := op.Txn(2, 2, op.OK, op.Append("34", 5))
	t3 := op.Txn(3, 3, op.OK, op.ReadList("34", []int{2, 1, 5, 4}))

	a := analyze(t, setup, t1, t2, t3)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected non-cycle anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(1, 2).Has(graph.RW) {
		t.Error("T1 should rw-depend-on T2 (missed append of 5)")
	}
	if !a.Graph.Label(2, 1).Has(graph.WW) {
		t.Error("T2 should ww-precede T1 (5 before 4 in [2 1 5 4])")
	}
	cycles := a.Graph.Freeze().FindCyclesWithExactlyOne(graph.RW, graph.KSWWWR, 1)
	if len(cycles) != 1 {
		t.Fatalf("expected one G-single cycle, got %d", len(cycles))
	}
}

// TestInternalInconsistencyFauna reproduces §7.3: a transaction appends 6
// to key 0 and then fails to read its own write.
func TestInternalInconsistencyFauna(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("0", 6), op.ReadList("0", []int{})),
	)
	if !hasAnomaly(a, anomaly.Internal) {
		t.Fatalf("expected internal anomaly, got %v", a.Anomalies)
	}
}

func TestInternalConsistencyOwnWritesVisible(t *testing.T) {
	// Reading your own appends in order is fine.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 0, op.OK,
			op.ReadList("x", []int{1}),
			op.Append("x", 2),
			op.ReadList("x", []int{1, 2})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("false positive: %v", a.Anomalies)
	}
}

func TestInternalAppendThenShorterRead(t *testing.T) {
	// Append 2 then read a value that doesn't end in 2: internal anomaly,
	// even with no prior read.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 0, op.OK, op.Append("x", 2), op.ReadList("x", []int{1})),
	)
	if !hasAnomaly(a, anomaly.Internal) {
		t.Fatalf("expected internal anomaly, got %v", a.Anomalies)
	}
}

func TestInternalRepeatedReadMustMatch(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Append("x", 2)),
		op.Txn(1, 1, op.OK,
			op.ReadList("x", []int{1}),
			op.ReadList("x", []int{1, 2})),
	)
	if !hasAnomaly(a, anomaly.Internal) {
		t.Fatalf("expected internal anomaly for changed repeated read, got %v", a.Anomalies)
	}
}

// TestG1aAbortedRead: reading an element appended by an aborted
// transaction.
func TestG1aAbortedRead(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
	)
	if !hasAnomaly(a, anomaly.G1a) {
		t.Fatalf("expected G1a, got %v", a.Anomalies)
	}
}

// TestG1bIntermediateRead: observing a version from the middle of another
// transaction.
func TestG1bIntermediateRead(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Append("x", 2)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
	)
	if !hasAnomaly(a, anomaly.G1b) {
		t.Fatalf("expected G1b, got %v", a.Anomalies)
	}
}

func TestOwnIntermediateReadIsFine(t *testing.T) {
	// A transaction may observe its own intermediate states.
	a := analyze(t,
		op.Txn(0, 0, op.OK,
			op.Append("x", 1), op.ReadList("x", []int{1}), op.Append("x", 2)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1, 2})),
	)
	if hasAnomaly(a, anomaly.G1b) {
		t.Fatalf("own intermediate read misreported: %v", a.Anomalies)
	}
}

// TestDirtyUpdate: committed state built on an aborted write (§4.1.5).
func TestDirtyUpdate(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1, 2})),
	)
	if !hasAnomaly(a, anomaly.DirtyUpdate) {
		t.Fatalf("expected dirty update, got %v", a.Anomalies)
	}
	// The read of the aborted element is also a G1a.
	if !hasAnomaly(a, anomaly.G1a) {
		t.Fatalf("expected G1a alongside dirty update, got %v", a.Anomalies)
	}
}

// TestGarbageRead: an element nobody ever appended.
func TestGarbageRead(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.ReadList("x", []int{99})),
	)
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("expected garbage read, got %v", a.Anomalies)
	}
}

func TestCrashedClientAppendIsNotGarbage(t *testing.T) {
	// A dangling invoke (client crashed) may still have taken effect.
	h := history.MustNew([]op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 2, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadList("x", []int{1})}},
	})
	a := Analyze(h, workload.Opts{})
	if hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("crashed client's append misreported as garbage: %v", a.Anomalies)
	}
}

// TestDuplicateElements: the same element twice in one read.
func TestDuplicateElements(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1, 1})),
	)
	if !hasAnomaly(a, anomaly.DuplicateElements) {
		t.Fatalf("expected duplicate elements, got %v", a.Anomalies)
	}
}

// TestDuplicateAppends: two transactions appending the same element.
func TestDuplicateAppends(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 1)),
	)
	if !hasAnomaly(a, anomaly.DuplicateAppends) {
		t.Fatalf("expected duplicate appends, got %v", a.Anomalies)
	}
}

// TestIncompatibleOrder: two committed reads neither of which is a prefix
// of the other imply an aborted read in every interpretation.
func TestIncompatibleOrder(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1, 2})),
		op.Txn(3, 3, op.OK, op.ReadList("x", []int{2, 1})),
	)
	if !hasAnomaly(a, anomaly.IncompatibleOrder) {
		t.Fatalf("expected incompatible order, got %v", a.Anomalies)
	}
}

func TestPrefixReadsCompatible(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1})),
		op.Txn(3, 3, op.OK, op.ReadList("x", []int{1, 2})),
	)
	if hasAnomaly(a, anomaly.IncompatibleOrder) {
		t.Fatalf("prefix reads misreported: %v", a.Anomalies)
	}
}

// TestG0WriteCycle: pure write-write cycle across two keys.
func TestG0WriteCycle(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Append("y", 2)),
		op.Txn(1, 1, op.OK, op.Append("y", 1), op.Append("x", 2)),
		// Reads establish x = [1, 2] but y = [1, 2] too — so T0's append
		// to x preceded T1's, but T1's append to y preceded T0's.
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1, 2})),
		op.Txn(3, 3, op.OK, op.ReadList("y", []int{1, 2})),
	)
	cycles := a.Graph.Freeze().FindCycles(graph.KSWW, 1)
	if len(cycles) != 1 {
		t.Fatalf("expected G0 cycle, found %d", len(cycles))
	}
}

// TestG1cCycle: information flow cycle with ww and wr edges.
func TestG1cCycle(t *testing.T) {
	a := analyze(t,
		// T0 reads T1's append to y, and T1 reads T0's append to x.
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.ReadList("y", []int{1})),
		op.Txn(1, 1, op.OK, op.Append("y", 1), op.ReadList("x", []int{1})),
	)
	cycles := a.Graph.Freeze().FindCycles(graph.KSWWWR, 1)
	if len(cycles) != 1 {
		t.Fatalf("expected G1c cycle, found %d", len(cycles))
	}
	for _, s := range cycles[0].Steps {
		if s.Via != graph.WR {
			t.Errorf("expected wr steps, got %v", s.Via)
		}
	}
}

// TestWriteSkewG2: the classic SI write skew produces two rw edges and no
// shorter anomaly.
func TestWriteSkewG2(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.ReadList("x", []int{}), op.Append("y", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("y", []int{}), op.Append("x", 1)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1}), op.ReadList("y", []int{1})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	if cycles := a.Graph.Freeze().FindCyclesWithExactlyOne(graph.RW, graph.KSWWWR, 1); len(cycles) != 0 {
		t.Fatalf("write skew misclassified as G-single")
	}
	cycles := a.Graph.Freeze().FindCyclesWithAtLeastOne(graph.RW, graph.KSDep, 1)
	if len(cycles) != 1 {
		t.Fatalf("expected G2 cycle, found %d", len(cycles))
	}
	if cycles[0].CountVia(graph.RW) != 2 {
		t.Errorf("expected 2 rw edges, got %d", cycles[0].CountVia(graph.RW))
	}
}

// TestInfoWritesParticipate: an indeterminate transaction whose append is
// observed acts as a writer in the dependency graph (§4.3.2).
func TestInfoWritesParticipate(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.Info, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(0, 1).Has(graph.WR) {
		t.Error("info writer should wr-precede its reader")
	}
}

// TestFailedReadsIgnored: reads inside aborted transactions produce no
// dependencies.
func TestFailedReadsIgnored(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.Fail, op.ReadList("x", []int{1})),
	)
	if a.Graph.Label(0, 1) != 0 {
		t.Error("aborted reader should have no incoming wr edge")
	}
}

// TestLostUpdateDetection: a committed append missing from a longest read
// that began after the append completed.
func TestLostUpdateDetection(t *testing.T) {
	b := history.NewBuilder()
	w1 := []op.Mop{op.Append("x", 1)}
	b.Invoke(0, w1)
	b.Complete(0, op.OK, w1)
	w2 := []op.Mop{op.Append("x", 2)}
	b.Invoke(1, w2)
	b.Complete(1, op.OK, w2)
	r := []op.Mop{op.ReadList("x", []int{2})}
	b.Invoke(2, []op.Mop{op.Read("x")})
	b.Complete(2, op.OK, r)
	h := b.MustHistory()

	a := Analyze(h, workload.Opts{DetectLostUpdates: true})
	if !hasAnomaly(a, anomaly.LostUpdate) {
		t.Fatalf("expected lost update, got %v", a.Anomalies)
	}
	// Without the option the inference must stay off.
	a2 := Analyze(h, workload.Opts{})
	if hasAnomaly(a2, anomaly.LostUpdate) {
		t.Fatal("lost update reported with detection disabled")
	}
}

func TestNoLostUpdateForConcurrentRead(t *testing.T) {
	// The read overlaps the append: its absence proves nothing.
	b := history.NewBuilder()
	b.Invoke(0, []op.Mop{op.Append("x", 1)})
	b.Invoke(1, []op.Mop{op.Read("x")})
	b.Complete(0, op.OK, []op.Mop{op.Append("x", 1)})
	b.Complete(1, op.OK, []op.Mop{op.ReadList("x", []int{})})
	h := b.MustHistory()
	a := Analyze(h, workload.Opts{DetectLostUpdates: true})
	if hasAnomaly(a, anomaly.LostUpdate) {
		t.Fatalf("concurrent read misreported as lost update: %v", a.Anomalies)
	}
}

// TestVersionOrderExcludesIncompatibleSeeds: incompatible reads must not
// seed edges.
func TestIncompatibleReadSeedsNoEdges(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.Append("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1, 2})),
		op.Txn(3, 3, op.OK, op.ReadList("x", []int{2})),
	)
	if !hasAnomaly(a, anomaly.IncompatibleOrder) {
		t.Fatal("expected incompatible order")
	}
	// T3's read of [2] must not generate a wr edge from T1 claiming T3
	// observed version [1 2]'s predecessor, nor an rw edge.
	if a.Graph.Label(3, 0) != 0 || a.Graph.Label(3, 1) != 0 {
		t.Error("incompatible read seeded dependency edges")
	}
}

func TestMultipleKeysIndependentOrders(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Append("x", 1), op.Append("y", 10)),
		op.Txn(1, 1, op.OK, op.Append("x", 2), op.Append("y", 20)),
		op.Txn(2, 2, op.OK,
			op.ReadList("x", []int{1, 2}), op.ReadList("y", []int{10, 20})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("unexpected anomalies: %v", a.Anomalies)
	}
	if len(a.VersionOrder("x")) != 2 || len(a.VersionOrder("y")) != 2 {
		t.Errorf("expected 2-element version orders for x and y, got %v and %v",
			a.VersionOrder("x"), a.VersionOrder("y"))
	}
	if !a.Graph.Label(0, 1).Has(graph.WW) {
		t.Error("agreeing keys should still give ww edge")
	}
}

func TestAnomalyCountsAreDeduplicated(t *testing.T) {
	// A single aborted element read twice in the same transaction reports
	// one G1a per read mop, not per element occurrence beyond that.
	a := analyze(t,
		op.Txn(0, 0, op.Fail, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1}), op.ReadList("x", []int{1})),
	)
	if got := anomalyCount(a, anomaly.G1a); got != 2 {
		t.Errorf("G1a count = %d, want 2 (one per read)", got)
	}
}
