package setadd

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

// TestSection3Example reproduces the paper's §3 set example exactly:
// wr edges T1 -> T3 and T2 -> T3, rw edges T0 -> T1 and T0 -> T2, and no
// ww edge between T1 and T2 (sets are order-free).
func TestSection3Example(t *testing.T) {
	a := analyze(t,
		op.Txn(9, 9, op.OK, op.Add("x", 0)), // writer of element 0
		op.Txn(0, 0, op.OK, op.ReadList("x", []int{0})),
		op.Txn(1, 1, op.OK, op.Add("x", 1)),
		op.Txn(2, 2, op.OK, op.Add("x", 2)),
		op.Txn(3, 3, op.OK, op.ReadList("x", []int{0, 1, 2})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(1, 3).Has(graph.WR) || !a.Graph.Label(2, 3).Has(graph.WR) {
		t.Error("missing wr edges into T3")
	}
	if !a.Graph.Label(0, 1).Has(graph.RW) || !a.Graph.Label(0, 2).Has(graph.RW) {
		t.Error("missing rw edges from T0")
	}
	if a.Graph.Label(1, 2) != 0 && a.Graph.Label(2, 1) != 0 {
		t.Error("sets must not yield ww edges between concurrent adds")
	}
}

func TestSetOrderFreeReads(t *testing.T) {
	// Reads report elements in any order; the analyzer must not care.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Add("x", 1)),
		op.Txn(1, 1, op.OK, op.Add("x", 2)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{2, 1})),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies on permuted read: %v", a.Anomalies)
	}
}

func TestG1aSet(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.Fail, op.Add("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
	)
	if !hasAnomaly(a, anomaly.G1a) {
		t.Fatalf("expected G1a, got %v", a.Anomalies)
	}
}

func TestGarbageSetRead(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.ReadList("x", []int{5})),
	)
	if !hasAnomaly(a, anomaly.GarbageRead) {
		t.Fatalf("expected garbage read, got %v", a.Anomalies)
	}
}

func TestDuplicateAdds(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Add("x", 1)),
		op.Txn(1, 1, op.OK, op.Add("x", 1)),
	)
	if !hasAnomaly(a, anomaly.DuplicateAppends) {
		t.Fatalf("expected duplicate adds, got %v", a.Anomalies)
	}
}

func TestInternalSetConsistency(t *testing.T) {
	// A transaction's read must include its own prior add.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Add("x", 1), op.ReadList("x", []int{})),
	)
	if !hasAnomaly(a, anomaly.Internal) {
		t.Fatalf("expected internal anomaly, got %v", a.Anomalies)
	}
	// Shrinking repeated reads are internal anomalies too.
	b := analyze(t,
		op.Txn(0, 0, op.OK, op.Add("x", 1)),
		op.Txn(1, 1, op.OK,
			op.ReadList("x", []int{1}), op.ReadList("x", []int{})),
	)
	if !hasAnomaly(b, anomaly.Internal) {
		t.Fatalf("expected internal anomaly for shrinking read, got %v", b.Anomalies)
	}
}

func TestOwnAddNotAntiDependency(t *testing.T) {
	// A read before the transaction's own add must not self-anti-depend.
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.ReadList("x", []int{}), op.Add("x", 1)),
	)
	if a.Graph.Label(0, 0) != 0 {
		t.Error("self rw edge emitted")
	}
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
}

// TestLongForkOverSets: the §1 long-fork shape is visible to the set
// analyzer as a G2 cycle (two reads each missing the other's element).
func TestLongForkOverSets(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Add("x", 1)),
		op.Txn(1, 1, op.OK, op.Add("y", 1)),
		op.Txn(2, 2, op.OK, op.ReadList("x", []int{1}), op.ReadList("y", []int{})),
		op.Txn(3, 3, op.OK, op.ReadList("y", []int{1}), op.ReadList("x", []int{})),
	)
	cycles := a.Graph.Freeze().FindCyclesWithAtLeastOne(graph.RW, graph.KSDep, 1)
	if len(cycles) != 1 {
		t.Fatalf("expected a G2 cycle, found %d", len(cycles))
	}
}

func TestFailedReadersIgnored(t *testing.T) {
	a := analyze(t,
		op.Txn(0, 0, op.OK, op.Add("x", 1)),
		op.Txn(1, 1, op.Fail, op.ReadList("x", []int{1})),
	)
	if a.Graph.Label(0, 1) != 0 {
		t.Error("aborted reader should have no edges")
	}
}
