package listappend

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/memdb"
	"repro/internal/op"
	"repro/internal/workload"
)

// assertSameAnalysis compares two analyses field by field: anomalies
// (order, ops and explanations included), version orders, the op index,
// and the dependency graph both as built and frozen.
func assertSameAnalysis(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Anomalies, want.Anomalies) {
		t.Fatalf("%s: anomalies diverge:\n%v\nwant:\n%v", label, got.Anomalies, want.Anomalies)
	}
	if !reflect.DeepEqual(got.VersionOrders, want.VersionOrders) {
		t.Fatalf("%s: version orders diverge:\n%v\nwant:\n%v", label, got.VersionOrders, want.VersionOrders)
	}
	if !reflect.DeepEqual(got.Ops, want.Ops) {
		t.Fatalf("%s: op index diverges", label)
	}
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Fatalf("%s: graph diverges:\n%v\nwant:\n%v", label, edgeList(got.Graph), edgeList(want.Graph))
	}
	if !reflect.DeepEqual(got.Graph.Freeze(), want.Graph.Freeze()) {
		t.Fatalf("%s: frozen graph diverges", label)
	}
}

// assertSessionMatches streams h through a session in chunks of the
// given size, calling afterFeed (when non-nil) after every chunk, and
// compares its Finish with the batch analysis.
func assertSessionMatches(t *testing.T, label string, h *history.History, opts workload.Opts, chunk int, want *Analysis, afterFeed func(*session)) {
	t.Helper()
	s := beginSession(opts).(*session)
	for ops := h.Ops; len(ops) > 0; {
		n := min(chunk, len(ops))
		if _, err := s.Feed(ops[:n]); err != nil {
			t.Fatalf("%s: Feed: %v", label, err)
		}
		if afterFeed != nil {
			afterFeed(s)
		}
		ops = ops[n:]
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatalf("%s: Finish: %v", label, err)
	}
	if !reflect.DeepEqual(got.Anomalies, want.Anomalies) {
		t.Fatalf("%s: session anomalies diverge from batch:\n%v\nbatch:\n%v", label, got.Anomalies, want.Anomalies)
	}
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Fatalf("%s: session graph diverges from batch:\n%v\nbatch:\n%v", label, edgeList(got.Graph), edgeList(want.Graph))
	}
	for k := range want.VersionOrders {
		if g, w := orderAt(got.Explainer.ListOrders, history.KeyID(k)), want.VersionOrders[k]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: session version order of %s = %v, batch %v", label, want.Keys.Key(history.KeyID(k)), g, w)
		}
	}
	if !reflect.DeepEqual(got.Explainer.Ops, want.Ops) {
		t.Fatalf("%s: session op index diverges from batch", label)
	}
}

type runMix struct {
	name               string
	faults             memdb.Faults
	abort, info, crash float64
}

// referenceMixes cover every element-index path: duplicate appends and
// nil reads, aborted and indeterminate writers, lost and intermediate
// updates, dirty reads and crashed clients.
var referenceMixes = []runMix{
	{name: "clean"},
	{name: "dup-nil-abort", faults: memdb.Faults{DuplicateAppendProb: 0.05, NilReadProb: 0.05}, abort: 0.1},
	{name: "stomp-info", faults: memdb.Faults{RetryStompProb: 0.5, RetryRebaseProb: 1}, info: 0.05},
	{name: "drop-own-crash", faults: memdb.Faults{DropWriteProb: 0.05, SkipOwnWriteProb: 0.05, StaleReadProb: 0.05}, abort: 0.05, info: 0.05, crash: 0.02},
}

// TestAnalyzeMatchesReference: on memdb histories across every isolation
// level, fault mix, parallelism and lost-update setting, Analyze must
// equal the map-based reference analyzer exactly. Each history is also
// checked with its tail cut off, which leaves unpaired invocations whose
// appends, under read-uncommitted, other transactions have read.
func TestAnalyzeMatchesReference(t *testing.T) {
	isos := []memdb.Isolation{memdb.ReadUncommitted, memdb.ReadCommitted,
		memdb.SnapshotIsolation, memdb.Serializable, memdb.StrictSerializable}
	for _, iso := range isos {
		for _, mix := range referenceMixes {
			t.Run(fmt.Sprintf("%v/%s", iso, mix.name), func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					g := gen.New(gen.Config{ActiveKeys: 4, MaxWritesPerKey: 30}, seed)
					full := memdb.Run(memdb.RunConfig{
						Clients: 8, Txns: 300, Isolation: iso, Faults: mix.faults,
						Source: g, Seed: seed, Workload: memdb.WorkloadList,
						AbortProb: mix.abort, InfoProb: mix.info, CrashProb: mix.crash,
					})
					cut := history.MustNew(full.Ops[:len(full.Ops)*9/10])
					for _, h := range []*history.History{full, cut} {
						for _, p := range []int{1, 4} {
							for _, lost := range []bool{false, true} {
								opts := workload.Opts{Parallelism: p, DetectLostUpdates: lost}
								label := fmt.Sprintf("seed=%d ops=%d p=%d lost=%v", seed, len(h.Ops), p, lost)
								assertSameAnalysis(t, label, Analyze(h, opts), refAnalyze(h, opts))
							}
						}
					}
				}
			})
		}
	}
}

// fuzzHistory decodes bytes into a small list-append history over four
// keys, four processes and eight element values, so duplicate appends,
// garbage and duplicate elements, incompatible orders and aborted or
// intermediate reads are all a few bytes away. Each step is one byte
// (plus the bytes its mops consume): the low two bits pick a process;
// an idle process invokes a transaction, a busy one completes it as
// OK, Fail or Info, or crashes, leaving the invocation unpaired. Reads
// observe a prefix of a model list built from the appends of completed
// transactions (a failed one's only when its step byte's high bit is
// set: a dirty write), or an arbitrary list.
func fuzzHistory(data []byte) *history.History {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b := history.NewBuilder()
	keys := []string{"a", "b", "c", "d"}
	model := map[string][]int{}
	open := map[int][]op.Mop{}
	procs := []int{0, 1, 2, 3}
	fresh := 4
	for steps := 0; len(data) > 0 && steps < 64; steps++ {
		c := next()
		slot := int(c & 3)
		p := procs[slot]
		mops, busy := open[p]
		if !busy {
			n := 1 + int(c>>2)%4
			mops = make([]op.Mop, n)
			for i := range mops {
				m := next()
				key := keys[(m>>1)&3]
				if m&1 == 0 {
					mops[i] = op.Append(key, int(m>>3)&7)
				} else {
					mops[i] = op.Read(key)
				}
			}
			open[p] = mops
			b.Invoke(p, mops)
			continue
		}
		delete(open, p)
		outcome := (c >> 2) & 3
		if outcome == 3 {
			// Crash: the invocation stays open, so the slot moves on to
			// a fresh process.
			procs[slot] = fresh
			fresh++
			continue
		}
		t := []op.Type{op.OK, op.Fail, op.Info}[outcome]
		done := make([]op.Mop, len(mops))
		for i, m := range mops {
			switch {
			case m.F == op.FAppend:
				if t != op.Fail || c&0x80 != 0 {
					model[m.Key] = append(model[m.Key], m.Arg)
				}
				done[i] = m
			case t != op.OK:
				done[i] = m
			default:
				r := next()
				cur := model[m.Key]
				switch {
				case r == 0xff:
					done[i] = m // value unknown
				case r&0x80 == 0:
					done[i] = op.ReadList(m.Key, append([]int{}, cur[:int(r)%(len(cur)+1)]...))
				default:
					list := []int{}
					for range int(r>>4) & 7 {
						list = append(list, int(next())&7)
					}
					done[i] = op.ReadList(m.Key, list)
				}
			}
		}
		if t == op.Info && c&0x40 != 0 {
			procs[slot] = fresh
			fresh++
		}
		b.Complete(p, t, done)
	}
	return b.MustHistory()
}

// FuzzAnalyze checks Analyze against the reference analyzer, and the
// streaming session's Finish — unbudgeted and under a 16-completion
// memory budget — against Analyze, on arbitrary small histories. The
// first byte picks the chunk size and whether lost updates are checked.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x02, 0, 0x01, 0x03, 0x01, 0x05, 0x01, 0x00})
	f.Add([]byte{0x41, 0x04, 0x08, 0x10, 0x01, 0x05, 0x01, 0x91, 0x09, 0x09, 0x00, 0x0c, 0x0d, 0x01})
	f.Add([]byte{0x83, 0x00, 0x00, 0x01, 0x08, 0x02, 0x00, 0x05, 0x03, 0x00, 0x0c, 0x02, 0x01, 0x01, 0x7f, 0x03, 0xa0, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ctl byte
		if len(data) > 0 {
			ctl, data = data[0], data[1:]
		}
		h := fuzzHistory(data)
		opts := workload.Opts{Parallelism: 1, DetectLostUpdates: ctl&1 == 1}
		want := Analyze(h, opts)
		assertSameAnalysis(t, "batch", want, refAnalyze(h, opts))
		chunk := 1 + int(ctl>>1)%8
		for _, budget := range []int{0, 16} {
			opts.MemoryBudget = budget
			assertSessionMatches(t, fmt.Sprintf("budget=%d chunk=%d", budget, chunk), h, opts, chunk, want, nil)
		}
	})
}

// TestAnalyzeAllocs pins Analyze's allocation count on a fixed 5k-txn
// list history. Allocation counts are deterministic, so a regression to
// per-element maps or per-read scratch fails here rather than only in a
// timed benchmark. The bound sits about 10% above the 11,142 allocations
// the element columns need (the map-based analyzer needed 38,732).
func TestAnalyzeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5k-txn history")
	}
	g := gen.New(gen.Config{ActiveKeys: 10, MaxWritesPerKey: 100}, 1)
	h := memdb.Run(memdb.RunConfig{
		Clients: 10, Txns: 5000, Isolation: memdb.StrictSerializable,
		Source: g, Seed: 1, Workload: memdb.WorkloadList, InfoProb: 0.01,
	})
	opts := workload.Opts{Parallelism: 1}
	const bound = 12250
	if allocs := testing.AllocsPerRun(3, func() { Analyze(h, opts) }); allocs > bound {
		t.Fatalf("Analyze on a 5k-txn history: %.0f allocs, bound %d", allocs, bound)
	}
}

func edgeList(g *graph.Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		g.OutSorted(n, graph.KSDep, func(to int, label graph.KindSet) {
			fmt.Fprintf(&b, "%d->%d %v\n", n, to, label)
		})
	}
	return b.String()
}

// deltaTypes lists the anomaly types a session surfaced across feeds.
func deltaTypes(t *testing.T, opts workload.Opts, chunks ...[]op.Op) []anomaly.Type {
	t.Helper()
	s := beginSession(opts)
	var out []anomaly.Type
	for _, c := range chunks {
		d, err := s.Feed(c)
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		for _, a := range d.Anomalies {
			out = append(out, a.Type)
		}
	}
	return out
}

// TestSessionLateAbortG1a: a read that arrives before its element's
// only writer fails is an aborted read, surfaced the moment the Fail
// arrives.
func TestSessionLateAbortG1a(t *testing.T) {
	got := deltaTypes(t, workload.Opts{},
		[]op.Op{op.Txn(0, 0, op.OK, op.ReadList("x", []int{1}))},
		[]op.Op{op.Txn(1, 1, op.Fail, op.Append("x", 1))},
	)
	if !reflect.DeepEqual(got, []anomaly.Type{anomaly.G1a}) {
		t.Fatalf("mid-stream findings = %v, want one G1a on the Fail's feed", got)
	}
}

// TestSessionNoG1aAfterCommittedAppend: once an element has a committed
// first attempt, a later failed duplicate append makes it unrecoverable,
// not aborted, so the earlier read is no G1a.
func TestSessionNoG1aAfterCommittedAppend(t *testing.T) {
	got := deltaTypes(t, workload.Opts{},
		[]op.Op{op.Txn(0, 0, op.OK, op.Append("x", 1))},
		[]op.Op{op.Txn(1, 1, op.OK, op.ReadList("x", []int{1}))},
		[]op.Op{op.Txn(2, 2, op.Fail, op.Append("x", 1))},
	)
	for _, typ := range got {
		if typ == anomaly.G1a {
			t.Fatalf("mid-stream findings = %v, want no G1a", got)
		}
	}
	if len(got) != 1 || got[0] != anomaly.DuplicateAppends {
		t.Fatalf("mid-stream findings = %v, want only the duplicate append", got)
	}
}
