package rwregister

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/workload"
)

// TestBudgetedSessionRetiresVersionState streams a faulted register
// history through a session with a memory budget small enough that keys
// retire many times over. After every feed, no key outside the live key
// set may keep version state — neither its version index entry nor any
// per-value writer, reader or write-count entry — and the finished
// analysis must still equal the batch analyzer's.
func TestBudgetedSessionRetiresVersionState(t *testing.T) {
	const seed = 3
	g := gen.New(gen.Config{Workload: gen.Register, ActiveKeys: 5, MaxWritesPerKey: 20}, seed)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 600, Isolation: memdb.SnapshotIsolation,
		Faults: memdb.Faults{RetryStompProb: 0.5, RetryRebaseProb: 1},
		Source: g, Seed: seed, Workload: memdb.WorkloadRegister, InfoProb: 0.02,
	})
	opts := workload.DefaultOpts()
	opts.MemoryBudget = 16
	s := beginSession(opts).(*session)
	const chunk = 17
	for ops := h.Ops; len(ops) > 0; {
		n := min(chunk, len(ops))
		if _, err := s.Feed(ops[:n]); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		ops = ops[n:]
		assertNoRetiredVersionState(t, s)
	}
	if s.rt.RetiredKeys() == 0 {
		t.Fatal("no key retired under a budget of 16 completions")
	}

	got, err := s.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	want := Analyze(h, opts)
	if !reflect.DeepEqual(got.Anomalies, want.Anomalies) {
		t.Fatalf("budgeted anomalies diverge from batch:\n%v\nbatch:\n%v", got.Anomalies, want.Anomalies)
	}
	if !reflect.DeepEqual(got.Explainer.RegOrders, want.VersionOrders) {
		t.Fatal("budgeted version orders diverge from batch")
	}
	if a, b := edgeList(got.Graph), edgeList(want.Graph); a != b {
		t.Fatalf("budgeted graph diverges from batch:\n%s\nbatch:\n%s", a, b)
	}
}

// assertNoRetiredVersionState fails if a key outside the session's live
// key set still holds version state.
func assertNoRetiredVersionState(t *testing.T, s *session) {
	t.Helper()
	a := s.a
	for k := range history.KeyID(len(a.vers)) {
		if s.keySet[k] {
			continue
		}
		if kv := a.vers[k]; len(kv.vals) > 0 || len(kv.nilReaders) > 0 {
			t.Fatalf("retired key %s keeps its version index: %+v", a.in.Key(k), kv)
		}
	}
	for _, m := range []map[verKey]int{a.writer, a.failedWriter, a.writeCount} {
		for vk := range m {
			if !s.keySet[vk.key] {
				t.Fatalf("retired key %s keeps a write entry for %d", a.in.Key(vk.key), vk.val)
			}
		}
	}
	for vk := range a.readers {
		if !s.keySet[vk.key] {
			t.Fatalf("retired key %s keeps readers of %d", a.in.Key(vk.key), vk.val)
		}
	}
}

// edgeList renders every edge of g, in node and target order.
func edgeList(g *graph.Graph) string {
	var out string
	for _, n := range g.Nodes() {
		g.OutSorted(n, graph.KSDep, func(b int, label graph.KindSet) {
			out += fmt.Sprintf("%d->%d %v\n", n, b, label)
		})
	}
	return out
}
