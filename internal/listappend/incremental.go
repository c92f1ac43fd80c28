package listappend

import (
	"fmt"

	"repro/internal/anomaly"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// scanEvery is how many completions a session ingests between edge
// syncs and incremental cycle scans. Per-op anomalies (internal
// inconsistencies, duplicate elements, aborted reads, duplicate
// appends, incompatible orders) surface on the feed that proves them;
// cycle witnesses surface at the next scan point, so the per-feed cost
// of a hot key's edge rebuild is amortized over a batch of ops.
const scanEvery = 128

// session is the native incremental analysis for list-append histories
// (workload.Session). Across feeds it maintains every index the batch
// analyzer builds up front — the op index and the per-key element
// columns — plus the per-key version orders (the longest
// clean read, replaced only by a strictly longer one) and a per-key
// dependency-edge cache that is rebuilt only for keys the last chunk
// touched. A graph.Incr ingests the refreshed edges and yields the
// dirty components, which are re-searched for new cycle witnesses.
//
// Finish runs exactly the batch phase sequence over the maintained
// indices, so its Analysis is byte-identical to Analyze over the
// concatenated chunks.
type session struct {
	a  *analyzer
	hs *history.Stream

	keyst  []*keyState     // per-key maintained state, indexed by KeyID
	keys   []history.KeyID // keys with clean reads, insertion order (sorted on demand)
	orders [][]int         // current version orders: longest clean read per key

	// late holds, per KeyID, the committed readers of elements no op
	// has attempted yet: if the first attempt fails, they read aborted
	// state (late-abort G1a). An element's entry goes at its first
	// attempt.
	late []map[int][]int

	incr      *graph.Incr
	touched   map[history.KeyID]bool // keys whose edge caches are stale
	emitted   map[string]bool        // mid-stream findings already surfaced
	poisoned  bool                   // evidence was retracted; rebuild incr at next scan
	sinceScan int
	done      bool

	// Memory-budget state (nil without a budget): quiescent-key tracking
	// and the store for frozen graph segments. See retire.go.
	rt     *workload.KeyTracker
	frozen *workload.FrozenStore
}

// keyState is one key's maintained inference state.
type keyState struct {
	reads   []cleanRead
	longest cleanRead
	has     bool
	edges   []graph.Edge
}

func beginSession(opts workload.Opts) workload.Session {
	hs := history.NewStream()
	s := &session{
		a:       newAnalyzer(opts, hs.Keys()),
		hs:      hs,
		incr:    graph.NewIncr(graph.KSDep),
		touched: map[history.KeyID]bool{},
		emitted: map[string]bool{},
	}
	if opts.MemoryBudget > 0 {
		hs.SetBudget(workload.StreamBudget(opts))
		s.rt = workload.NewKeyTracker(opts.MemoryBudget)
		s.frozen = workload.NewFrozenStore(opts.SpillDir)
		s.a.windowed = true
	}
	return s
}

// keystAt reads the KeyID-indexed state slice, which grows on demand as
// the stream interns new keys.
func (s *session) keystAt(k history.KeyID) *keyState {
	if int(k) < len(s.keyst) {
		return s.keyst[k]
	}
	return nil
}

// Feed ingests one chunk, updating every maintained index, and returns
// the anomalies the chunk made provable (see workload.Delta for the
// provisional-findings contract).
func (s *session) Feed(ops []op.Op) (workload.Delta, error) {
	if s.done {
		return workload.Delta{}, workload.ErrSessionFinished
	}
	var d workload.Delta
	for _, o := range ops {
		if err := s.hs.Add(o); err != nil {
			return workload.Delta{}, err
		}
		if o.Type == op.Invoke {
			continue
		}
		s.sinceScan++
		s.ingest(o, &d)
	}
	if s.sinceScan >= scanEvery {
		s.scan(&d)
		if s.rt != nil {
			// Sweep after the scan: the dirty components the retiring ops
			// participated in have been searched, so their witnesses are
			// out before the state backing them goes.
			s.sweep()
		}
	}
	d.Ops = s.hs.Completions()
	return d, nil
}

// ingest indexes one completion and surfaces its per-op findings.
func (s *session) ingest(o op.Op, d *workload.Delta) {
	a := s.a
	a.addOp(o, s.hs.SpanOf(o.Index))
	s.note(o)

	for _, m := range o.Mops {
		if m.F != op.FAppend {
			continue
		}
		k := a.kid(m.Key)
		s.touched[k] = true
		c := a.cols[k]
		i, _ := c.lookup(m.Arg)
		readers := s.takeLate(k, m.Arg)
		switch c.count[i] {
		case 1:
			if o.Type == op.Fail {
				// Readers that already observed this element read state
				// that is now known to be aborted.
				for _, r := range readers {
					ro := a.ops[r]
					s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", k, m.Arg, r, o.Index),
						g1aAnomaly(ro, m.Key, readListOf(ro, m.Key, m.Arg), m.Arg, o))
				}
			}
		case 2:
			// The evicted writer's edges may already be in the
			// incremental graph; they are no longer evidence.
			s.poisoned = true
			s.emit(d, fmt.Sprintf("dup|%d|%d", k, m.Arg), anomaly.Anomaly{
				Type: anomaly.DuplicateAppends,
				Ops:  []op.Op{a.ops[c.first[i]], o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"element %d was appended to key %s by %d distinct transactions; appends must be unique for versions to be recoverable",
					m.Arg, m.Key, c.count[i]),
			})
		}
	}
	if o.Type != op.OK {
		return
	}

	// Per-op checks whose evidence is already complete.
	d.Anomalies = append(d.Anomalies, a.internalAnomalies(o)...)
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		k := a.kid(m.Key)
		c := a.colAt(k)
		// As in the batch read pass, strictly increasing ordinals prove
		// the list duplicate-free.
		increasing, prev := true, int32(-1)
		var aborted [][2]int // (element, failed writer) pairs, in list order
		for _, e := range m.List {
			i, ok := c.lookup(e)
			if !ok {
				increasing = false
				s.late = history.GrowKeyed(s.late, k)
				if s.late[k] == nil {
					s.late[k] = map[int][]int{}
				}
				s.late[k][e] = append(s.late[k][e], o.Index)
				continue
			}
			if i <= prev {
				increasing = false
			}
			prev = i
			if w, ok := c.failedWriter(i); ok {
				aborted = append(aborted, [2]int{e, w})
			}
		}
		dup := false
		if !increasing {
			var e int
			if e, dup = firstRepeat(m.List); dup {
				d.Anomalies = append(d.Anomalies, duplicateElementsAnomaly(o, m, e))
			}
		}
		for _, ew := range aborted {
			s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", k, ew[0], o.Index, ew[1]),
				g1aAnomaly(o, m.Key, m.List, ew[0], a.ops[ew[1]]))
		}
		if dup {
			continue // not a clean read; contributes no version order
		}
		s.ingestCleanRead(o, m, d)
	}
}

// takeLate removes and returns the readers recorded for element e of
// key k before any op attempted it.
func (s *session) takeLate(k history.KeyID, e int) []int {
	if int(k) >= len(s.late) || s.late[k] == nil {
		return nil
	}
	readers := s.late[k][e]
	delete(s.late[k], e)
	return readers
}

// ingestCleanRead folds one clean committed read into the key's
// maintained version order, surfacing incompatible orders as they
// become provable.
func (s *session) ingestCleanRead(o op.Op, m op.Mop, d *workload.Delta) {
	k := s.a.kid(m.Key)
	s.touched[k] = true
	s.keyst = history.GrowKeyed(s.keyst, k)
	s.orders = history.GrowKeyed(s.orders, k)
	ks := s.keyst[k]
	if ks == nil {
		ks = &keyState{}
		s.keyst[k] = ks
		s.keys = append(s.keys, k)
	}
	r := cleanRead{o, m.List}
	ks.reads = append(ks.reads, r)
	switch {
	case !ks.has:
		ks.longest, ks.has = r, true
		s.orders[k] = m.List
	case len(m.List) > len(ks.longest.list):
		// The trace grows; the displaced read keeps its edges only if it
		// is a prefix of the new trace.
		if !op.IsPrefix(ks.longest.list, m.List) {
			// Replacing the trace retracts the edges inferred from it.
			s.poisoned = true
			old := ks.longest
			s.emit(d, fmt.Sprintf("incompat|%s|%d|%d", m.Key, old.o.Index, o.Index),
				incompatAnomaly(m.Key, old, r))
		}
		ks.longest = r
		s.orders[k] = m.List
	case !op.IsPrefix(m.List, ks.longest.list):
		s.emit(d, fmt.Sprintf("incompat|%s|%d|%d", m.Key, o.Index, ks.longest.o.Index),
			incompatAnomaly(m.Key, r, ks.longest))
	}
}

// scan syncs the edge caches of every touched key into the incremental
// graph and re-searches only the components the new edges dirtied.
func (s *session) scan(d *workload.Delta) {
	s.sinceScan = 0
	for _, k := range s.drainTouched() {
		ks := s.keystAt(k)
		if ks == nil {
			continue // appends without clean reads: no trace, no edges
		}
		ks.edges = s.a.keyEdges(k, ks.reads, s.orders[k])
		if !s.poisoned {
			s.incr.AddEdges(ks.edges)
		}
	}
	if s.poisoned {
		// Evidence was retracted since the last scan — a duplicate
		// append evicted a writer, or an incompatible read replaced a
		// trace — and the append-only graph would keep the stale edges
		// alive, seeding phantom provisional cycles. Rebuild it from
		// the current caches; only structurally broken histories pay
		// this, and the emitted-set keeps prior findings from
		// resurfacing.
		s.poisoned = false
		s.incr = graph.NewIncr(graph.KSDep)
		keys := append([]history.KeyID(nil), s.keys...)
		s.a.in.SortKeyIDs(keys)
		for _, k := range keys {
			s.incr.AddEdges(s.keyst[k].edges)
		}
	}
	dirty := s.incr.DirtySCCs()
	if len(dirty) == 0 {
		return
	}
	var nodes []int
	for _, scc := range dirty {
		nodes = append(nodes, scc...)
	}
	// Freeze the subgraph induced by the dirty nodes: the cost is
	// O(edges incident to the dirty components), not O(graph).
	cycles, _ := graph.NewFrozen(s.incr.Graph(), nodes).AnomalousCycles(0, s.a.opts.Parallelism)
	if len(cycles) == 0 {
		return
	}
	expl := &explain.Explainer{Ops: s.a.ops, Keys: s.a.in, ListOrders: s.orders}
	for _, c := range cycles {
		s.emit(d, "cycle|"+graph.CycleKey(c), anomaly.Anomaly{
			Type:        anomaly.CycleType(c),
			Cycle:       c,
			Explanation: expl.Cycle(c),
		})
	}
}

func (s *session) drainTouched() []history.KeyID {
	keys := make([]history.KeyID, 0, len(s.touched))
	for k := range s.touched {
		keys = append(keys, k)
	}
	s.a.in.SortKeyIDs(keys)
	s.touched = map[history.KeyID]bool{}
	return keys
}

// emit surfaces one finding unless an earlier feed already did.
func (s *session) emit(d *workload.Delta, key string, an anomaly.Anomaly) {
	if s.emitted[key] {
		return
	}
	s.emitted[key] = true
	d.Anomalies = append(d.Anomalies, an)
}

// Finish completes the stream: it refreshes the edge caches of keys
// still pending since the last scan, then assembles the canonical
// analysis in the batch phase order over the maintained indices. Only
// the checks whose evidence is inherently global (the read pass's
// garbage reads and G1a/G1b against the final element columns, dirty
// and lost updates) run over the whole history here; version orders
// and dependency edges are the maintained ones.
func (s *session) Finish() (workload.Analysis, error) {
	if s.done {
		return workload.Analysis{}, workload.ErrSessionFinished
	}
	s.done = true
	if err := s.hs.Err(); err != nil {
		// A chunk was rejected; finishing anyway would bless a history
		// the batch validator refuses.
		return workload.Analysis{}, err
	}
	if s.rt != nil {
		// Budgeted sessions retired analyzer state along the way, so the
		// maintained indices are windows, not the whole history. Rehydrate
		// the stream (History decodes every retired segment) and run the
		// batch analyzer over it — byte-identical to batch by
		// construction, at the documented O(history) finish cost.
		s.frozen.Close()
		an := Analyze(s.hs.History(), s.a.opts)
		return workload.Analysis{
			Graph:     an.Graph,
			Anomalies: an.Anomalies,
			Explainer: &explain.Explainer{Ops: an.Ops, Keys: an.Keys, ListOrders: an.VersionOrders},
		}, nil
	}
	a := s.a
	a.h = s.hs.History()
	p := a.opts.Parallelism

	for k := range s.touched {
		ks := s.keystAt(k)
		if ks == nil {
			continue
		}
		ks.edges = a.keyEdges(k, ks.reads, s.orders[k])
	}
	keys := append([]history.KeyID(nil), s.keys...)
	a.in.SortKeyIDs(keys)

	a.anomalies = append(a.anomalies, a.duplicateAppendAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.oks[i])
	}))
	reads := a.readPass()
	for i := range reads {
		a.anomalies = append(a.anomalies, reads[i].structure...)
	}
	perKey := par.Map(p, len(keys), func(i int) []anomaly.Anomaly {
		ks := s.keyst[keys[i]]
		return a.incompatAnomalies(keys[i], ks.reads, ks.longest)
	})
	for _, anoms := range perKey {
		a.anomalies = append(a.anomalies, anoms...)
	}

	g := graph.New()
	for _, o := range a.oks {
		g.Ensure(o.Index)
	}
	for _, k := range keys {
		g.AddEdges(s.keyst[k].edges)
	}

	a.finishAnomalies(reads, keys, s.orders)
	return workload.Analysis{
		Graph:     g,
		Anomalies: a.anomalies,
		Explainer: &explain.Explainer{Ops: a.ops, Keys: a.in, ListOrders: s.orders},
	}, nil
}

// History returns the session's validated accumulation; call after
// Finish (it aliases live state).
func (s *session) History() *history.History { return s.hs.History() }

// readListOf recovers the list value with which reader observed
// element elem of key — for the late-abort G1a path, where the read
// arrived before its writer's failure.
func readListOf(reader op.Op, key string, elem int) []int {
	for _, m := range reader.Mops {
		if !m.ListKnown() || m.Key != key {
			continue
		}
		for _, e := range m.List {
			if e == elem {
				return m.List
			}
		}
	}
	return nil
}
