package rwregister

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

// scanEvery is how many completions a session ingests between per-key
// inference refreshes. Per-op anomalies (internal inconsistencies,
// aborted reads, duplicate writes) surface on the feed that proves
// them; cyclic version orders surface at the next refresh.
const scanEvery = 128

// session is the native incremental analysis for rw-register histories
// (workload.Session). Register inference is per-key and the rules are
// monotone — version graphs only gain edges as the history grows — so
// the session maintains the batch analyzer's indices (op/span maps,
// per-value write and reader indices) plus a per-key cache of the full
// inference pipeline (version graph, cyclicity, reduction, dependency
// explosion), recomputed only for keys the last chunk touched. At
// Finish, every untouched key's cached result is exactly what the batch
// analyzer would compute, so the Analysis is byte-identical.
type session struct {
	a  *analyzer
	hs *history.Stream

	keySet map[history.KeyID]bool

	cache     map[history.KeyID]keyResult
	touched   map[history.KeyID]bool
	emitted   map[string]bool
	sinceScan int
	done      bool

	// rt tracks key quiescence under a memory budget (nil without one);
	// see retire.go.
	rt *workload.KeyTracker
}

func beginSession(opts workload.Opts) workload.Session {
	hs := history.NewStream()
	s := &session{
		a:       newAnalyzer(opts, hs.Keys()),
		hs:      hs,
		keySet:  map[history.KeyID]bool{},
		cache:   map[history.KeyID]keyResult{},
		touched: map[history.KeyID]bool{},
		emitted: map[string]bool{},
	}
	if opts.MemoryBudget > 0 {
		hs.SetBudget(workload.StreamBudget(opts))
		s.rt = workload.NewKeyTracker(opts.MemoryBudget)
		s.a.windowed = true
	}
	return s
}

// Feed ingests one chunk, updating the maintained indices, and returns
// the anomalies the chunk made provable.
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
			// Sweep after the scan so retiring keys' last refresh has
			// already surfaced their findings.
			s.sweep()
		}
	}
	d.Ops = s.hs.Completions()
	return d, nil
}

func (s *session) ingest(o op.Op, d *workload.Delta) {
	a := s.a
	a.addOp(o, s.hs.SpanOf(o.Index))
	s.note(o)

	for _, m := range o.Mops {
		if m.F != op.FWrite {
			continue
		}
		k := a.kid(m.Key)
		s.mark(k)
		vk := verKey{k, m.Arg}
		switch a.writeCount[vk] {
		case 1:
			if o.Type == op.Fail {
				// Readers that already observed this value read state
				// that is now known to be aborted.
				for _, r := range a.readers[vk] {
					s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", vk.key, vk.val, r, o.Index),
						g1aAnomaly(a.ops[r], m.Key, vk.val, o))
				}
			}
		case 2:
			s.emit(d, fmt.Sprintf("dup|%d|%d", vk.key, vk.val), anomaly.Anomaly{
				Type: anomaly.DuplicateAppends,
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"value %d was written to key %s by %d transactions; writes must be unique for versions to be recoverable",
					vk.val, m.Key, a.writeCount[vk]),
			})
		}
	}
	if o.Type != op.OK {
		return
	}
	for _, m := range o.Mops {
		// addOp already grouped the op under each key; marking keeps the
		// touched/key sets in step (repeated marks are cheap).
		k := a.kid(m.Key)
		s.mark(k)
		if m.F == op.FRead && m.RegKnown && !m.RegNil {
			if w, ok := a.failedWriter[verKey{k, m.Reg}]; ok {
				s.emit(d, fmt.Sprintf("g1a|%d|%d|%d|%d", k, m.Reg, o.Index, w),
					g1aAnomaly(o, m.Key, m.Reg, a.ops[w]))
			}
		}
	}
	d.Anomalies = append(d.Anomalies, a.internalAnomalies(o)...)
}

func (s *session) mark(k history.KeyID) {
	s.keySet[k] = true
	s.touched[k] = true
}

// scan refreshes the per-key inference of every touched key, surfacing
// newly cyclic version orders.
func (s *session) scan(d *workload.Delta) {
	s.sinceScan = 0
	keys := make([]history.KeyID, 0, len(s.touched))
	for k := range s.touched {
		keys = append(keys, k)
	}
	s.a.in.SortKeyIDs(keys)
	s.touched = map[history.KeyID]bool{}
	results := par.Map(s.a.opts.Parallelism, len(keys), func(i int) keyResult {
		return s.a.analyzeKey(keys[i], s.a.byKeyAt(keys[i]))
	})
	for i, k := range keys {
		s.cache[k] = results[i]
		if results[i].cyclic != nil {
			kname := s.a.in.Key(k)
			s.emit(d, "cvo|"+kname, cvoAnomaly(kname, results[i].cyclic))
		}
	}
}

// History returns the session's validated accumulation; call after
// Finish (it aliases live state).
func (s *session) History() (*history.History, error) { return s.hs.History() }

// emit surfaces one finding unless an earlier feed already did.
func (s *session) emit(d *workload.Delta, key string, an anomaly.Anomaly) {
	if s.emitted[key] {
		return
	}
	s.emitted[key] = true
	d.Anomalies = append(d.Anomalies, an)
}

// Finish completes the stream: it refreshes the keys still pending
// since the last scan, then assembles the canonical analysis in the
// batch phase order over the maintained indices and per-key caches.
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
	h, err := s.hs.History()
	if err != nil {
		return workload.Analysis{}, err
	}
	if s.rt != nil {
		// Budgeted sessions retired per-key state along the way; the
		// caches are windows, not the whole history. Run the batch
		// analyzer over the rehydrated stream — byte-identical to batch by
		// construction, at the documented O(history) finish cost.
		an := Analyze(h, s.a.opts)
		return workload.Analysis{
			Graph:     an.Graph,
			Anomalies: an.Anomalies,
			Explainer: &explain.Explainer{Ops: an.Ops, Keys: an.Keys, RegOrders: an.VersionOrders},
		}, nil
	}
	a := s.a
	a.h = h
	p := a.opts.Parallelism

	pending := make([]history.KeyID, 0, len(s.touched))
	for k := range s.touched {
		pending = append(pending, k)
	}
	a.in.SortKeyIDs(pending)
	results := par.Map(p, len(pending), func(i int) keyResult {
		return a.analyzeKey(pending[i], a.byKeyAt(pending[i]))
	})
	for i, k := range pending {
		s.cache[k] = results[i]
	}

	a.anomalies = append(a.anomalies, a.duplicateWriteAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.oks[i])
	}))
	a.buildRelIndexes()
	a.anomalies = append(a.anomalies, a.abortedReadAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.readAnomalies(a.oks[i])
	}))

	g := graph.New()
	for _, o := range a.oks {
		g.Ensure(o.Index)
	}
	keys := make([]history.KeyID, 0, len(s.keySet))
	for k := range s.keySet {
		keys = append(keys, k)
	}
	a.in.SortKeyIDs(keys)
	orders := make([][][2]string, a.in.Len())
	for _, k := range keys {
		r := s.cache[k]
		if r.cyclic != nil {
			a.report(cvoAnomaly(a.in.Key(k), r.cyclic))
			continue
		}
		orders[k] = r.verEdges
		g.AddEdges(r.edges)
	}
	a.emitWR(g)
	return workload.Analysis{
		Graph:     g,
		Anomalies: a.anomalies,
		Explainer: &explain.Explainer{Ops: a.ops, Keys: a.in, RegOrders: orders},
	}, nil
}
