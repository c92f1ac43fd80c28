package listappend

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

// TestRetireDropsUnpinnedOps: after every sweep of a budgeted session,
// each node left in the live incremental graph is an op some live key
// still pins — dropping the rest is what bounds the graph's feed-phase
// memory — and Finish still equals the batch analysis, with and
// without a spill directory.
func TestRetireDropsUnpinnedOps(t *testing.T) {
	for _, mix := range referenceMixes {
		t.Run(mix.name, func(t *testing.T) {
			g := gen.New(gen.Config{ActiveKeys: 4, MaxWritesPerKey: 30}, 1)
			h := memdb.Run(memdb.RunConfig{
				Clients: 8, Txns: 600, Isolation: memdb.SnapshotIsolation, Faults: mix.faults,
				Source: g, Seed: 1, Workload: memdb.WorkloadList,
				AbortProb: mix.abort, InfoProb: mix.info, CrashProb: mix.crash,
			})
			want := Analyze(h, workload.Opts{Parallelism: 1})
			for _, spill := range []bool{false, true} {
				opts := workload.Opts{Parallelism: 1, MemoryBudget: 16}
				if spill {
					opts.SpillDir = t.TempDir()
				}
				label := fmt.Sprintf("spill=%v", spill)
				sweeps, retired := 0, 0
				assertSessionMatches(t, label, h, opts, 7, want, func(s *session) {
					if n := s.rt.RetiredKeys(); n > retired {
						sweeps, retired = sweeps+1, n
					}
					for _, n := range s.incr.Graph().Nodes() {
						if !s.rt.LiveOp(n) {
							t.Fatalf("%s: op %d stays in the live graph after sweep %d, but no live key pins it", label, n, sweeps)
						}
					}
				})
				if sweeps == 0 {
					t.Fatalf("%s: no sweep retired a key", label)
				}
			}
		})
	}
}
