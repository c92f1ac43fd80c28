package workload

import (
	"errors"

	"repro/internal/anomaly"
	"repro/internal/history"
	"repro/internal/op"
)

// Delta is the outcome of one Feed: what the chunk made visible.
//
// Mid-stream anomalies are provisional findings: each one is evidence
// the final analysis will normally confirm (same Type on the same
// Key), though its exact witness may still grow — a duplicate write
// can gain a third writer, a version order can extend. Anomalies whose
// provability is not monotone under history extension (a garbage read's
// element may be appended later; a lost update needs the final version
// order) are never surfaced mid-stream.
//
// One caveat keeps the contract honest: a finding's evidence can
// itself be destroyed by a later chunk when the history is structurally
// broken. A provisional G1a leans on a value having a unique, aborted
// writer; if a later transaction writes the same supposedly-unique
// value, recoverability is gone, and the final report carries the
// duplicate-write anomaly instead of the G1a it superseded. Likewise a
// provisional cycle can lean on a version order a later incompatible
// read replaces. In those cases the finding is superseded by the
// structural anomaly that destroyed its evidence, not confirmed. The
// definitive set, in the definitive order, is always the one Finish
// returns.
type Delta struct {
	// Anomalies newly surfaced by this chunk, deduplicated against
	// everything surfaced by earlier feeds of the same session.
	Anomalies []anomaly.Anomaly
	// Ops is the total number of completion ops ingested so far.
	Ops int
}

// Session is one in-progress incremental analysis. Ops are fed in
// chunks, in ascending index order across all feeds; each feed
// validates the chunk, updates the session's per-key version orders,
// indices, and dependency edges rather than recomputing them from
// scratch, and reports the anomalies the chunk made provable. Finish
// completes the stream and returns the full Analysis — byte-identical
// to running the batch Analyzer over the concatenation of every chunk.
// History exposes the session's validated accumulation, so callers
// (core.Stream) need not keep — and re-validate — a second copy of the
// ops; call it once feeding is over. It fails when a budgeted session's
// retired segments cannot be read back (see history.Stream.History).
//
// Sessions are single-goroutine: Feed and Finish must not be called
// concurrently. Internally they may fan work out across
// Opts.Parallelism workers, with the same determinism contract as the
// batch analyzers.
type Session interface {
	Feed(ops []op.Op) (Delta, error)
	Finish() (Analysis, error)
	History() (*history.History, error)
}

// Incremental is the optional extension a workload analyzer implements
// to support streaming: Begin opens a Session that ingests the history
// chunk by chunk. Analyzers that do not implement it are still
// streamable through BeginSession's buffer-then-batch adapter; they
// simply do all their work at Finish.
type Incremental interface {
	Begin(opts Opts) Session
}

// IncrementalFunc adapts a session constructor to Incremental.
type IncrementalFunc func(opts Opts) Session

// Begin calls f.
func (f IncrementalFunc) Begin(opts Opts) Session { return f(opts) }

// BeginSession opens a streaming session for a registered workload:
// the native incremental implementation when the registration carries
// one, and the generic buffer-then-batch adapter otherwise. Either way
// the Finish result is byte-identical to the batch Analyzer's.
func BeginSession(info Info, opts Opts) Session {
	if info.Incremental != nil {
		return info.Incremental.Begin(opts)
	}
	hs := history.NewStream()
	hs.SetBudget(StreamBudget(opts))
	return &batchSession{analyzer: info.Analyzer, opts: opts, hs: hs}
}

// ErrSessionFinished is returned by Feed after Finish.
var ErrSessionFinished = errors.New("workload: session already finished")

// batchSession is the generic fallback: it validates and buffers the
// stream, then runs the batch analyzer once at Finish. No mid-stream
// anomalies are surfaced — every Delta is empty but for the op count.
//
// Memory budgets apply only partially here — the documented "cannot
// retire" escape hatch. The adapter keeps no analyzer state to retire;
// what a budget bounds is the op buffer itself: settled prefixes are
// encoded into compact segments (a few bytes per op) and optionally
// spilled to disk, so feed-phase memory is O(window) with a spill dir
// and O(encoded history) without. Finish then rehydrates the whole
// history and pays the batch analyzer's full O(history) cost — the
// adapter has no way to analyze incrementally. Workloads that need a
// genuinely bounded finish must register a native Incremental.
type batchSession struct {
	analyzer Analyzer
	opts     Opts
	hs       *history.Stream
	done     bool
}

func (s *batchSession) Feed(ops []op.Op) (Delta, error) {
	if s.done {
		return Delta{}, ErrSessionFinished
	}
	if err := s.hs.AddAll(ops); err != nil {
		return Delta{}, err
	}
	return Delta{Ops: s.hs.Completions()}, nil
}

func (s *batchSession) Finish() (Analysis, error) {
	if s.done {
		return Analysis{}, ErrSessionFinished
	}
	s.done = true
	if err := s.hs.Err(); err != nil {
		// A chunk was rejected; finishing anyway would bless a history
		// the batch validator refuses.
		return Analysis{}, err
	}
	h, err := s.hs.History()
	if err != nil {
		return Analysis{}, err
	}
	return s.analyzer.Analyze(h, s.opts), nil
}

func (s *batchSession) History() (*history.History, error) { return s.hs.History() }

// RetireStats implements Retirer: only the op stream retires here (see
// the type comment's escape hatch).
func (s *batchSession) RetireStats() RetireStats {
	return RetireStats{Stream: s.hs.RetireStats()}
}
