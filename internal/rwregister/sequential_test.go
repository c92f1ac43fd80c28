package rwregister

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/op"
	"repro/internal/workload"
)

// Tests for the §5.2 sequential-keys rule: a single process's successive
// observations of one key order its versions, even without real-time
// information.

func TestSequentialKeysOrdersVersions(t *testing.T) {
	opts := workload.Opts{SequentialKeys: true}
	// Process 7 wrote 1, then later (different txn) wrote 2; a reader
	// saw 2. Session order gives 1 <x 2 without wfr or realtime.
	a := analyze(t, opts,
		op.Txn(0, 7, op.OK, op.Write("x", 1)),
		op.Txn(1, 7, op.OK, op.Write("x", 2)),
		op.Txn(2, 3, op.OK, op.ReadReg("x", 2)),
	)
	if len(a.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", a.Anomalies)
	}
	if !a.Graph.Label(0, 1).Has(graph.WW) {
		t.Error("sequential-keys should order same-process writes as ww")
	}
}

func TestSequentialKeysCrossProcessNoEdge(t *testing.T) {
	opts := workload.Opts{SequentialKeys: true}
	a := analyze(t, opts,
		op.Txn(0, 1, op.OK, op.Write("x", 1)),
		op.Txn(1, 2, op.OK, op.Write("x", 2)),
	)
	if a.Graph.Label(0, 1) != 0 && a.Graph.Label(1, 0) != 0 {
		t.Error("sequential-keys must not order writes across processes")
	}
}

func TestSequentialKeysDetectsSessionRegression(t *testing.T) {
	// Process 5 read 2, then later read 1 — with the writers recoverable
	// and wfr linking 1 -> 2, the session edge 2 -> 1 closes a cyclic
	// version order.
	opts := workload.Opts{InitialState: true, WritesFollowReads: true, SequentialKeys: true}
	a := analyze(t, opts,
		op.Txn(0, 0, op.OK, op.Write("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadReg("x", 1), op.Write("x", 2)),
		op.Txn(2, 5, op.OK, op.ReadReg("x", 2)),
		op.Txn(3, 5, op.OK, op.ReadReg("x", 1)),
	)
	found := false
	for _, an := range a.Anomalies {
		if an.Type == anomaly.CyclicVersionOrder {
			found = true
		}
	}
	if !found {
		t.Fatalf("session regression not detected: %v", a.Anomalies)
	}
}

func TestSequentialKeysRespectsAbortedTxns(t *testing.T) {
	// A failed transaction contributes no session edges.
	opts := workload.Opts{SequentialKeys: true}
	a := analyze(t, opts,
		op.Txn(0, 7, op.Fail, op.Write("x", 1)),
		op.Txn(1, 7, op.OK, op.Write("x", 2)),
	)
	if a.Graph.Label(0, 1) != 0 {
		t.Error("failed transaction seeded a session version edge")
	}
}

func TestDefaultOptsEnableEverything(t *testing.T) {
	o := workload.DefaultOpts()
	if !o.InitialState || !o.WritesFollowReads || !o.LinearizableKeys || !o.SequentialKeys {
		t.Errorf("DefaultOpts = %+v", o)
	}
}
