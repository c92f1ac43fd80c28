package core

import (
	"errors"

	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// Stream is an in-progress incremental check: a history is fed in
// chunks, in ascending index order, and anomalies surface as they
// become provable instead of only after the run ends. Feed validates
// each chunk, routes it to the workload's streaming session (native
// incremental for analyzers that implement workload.Incremental,
// buffer-then-batch otherwise), and returns the chunk's Delta of
// provisional findings. Finish completes the stream and produces the
// definitive CheckResult — byte-identical to core.Check over the
// concatenation of every chunk, at every Parallelism setting.
//
// A Stream is single-goroutine: Feed and Finish must not be called
// concurrently. Internally the session and the final classification fan
// out across Opts.Parallelism workers exactly as the batch pipeline
// does.
type Stream struct {
	opts Opts
	sess workload.Session
	h    *history.History
	ops  int
	done bool
}

// ErrStreamFinished is returned by Feed and Finish after Finish.
var ErrStreamFinished = errors.New("core: stream already finished")

// CheckStream begins an incremental check under opts. Like Check it
// panics on an unregistered workload name; every other failure mode
// (malformed chunks, misuse after Finish) is an error from Feed or
// Finish.
func CheckStream(opts Opts) *Stream {
	opts = opts.withDefaults()
	info := lookup(opts.Workload)
	return &Stream{
		opts: opts,
		sess: workload.BeginSession(info, opts.Opts),
	}
}

// Feed ingests the next chunk of ops, returning the anomalies the
// chunk made provable. The session validates as it ingests — the ops
// are stored, validated, and indexed exactly once. Mid-stream
// anomalies are provisional: evidence the final report will confirm,
// not the final report itself (see workload.Delta).
func (s *Stream) Feed(ops []op.Op) (workload.Delta, error) {
	if s.done {
		return workload.Delta{}, ErrStreamFinished
	}
	d, err := s.sess.Feed(ops)
	if err != nil {
		return d, err
	}
	s.ops = d.Ops
	return d, nil
}

// Finish completes the stream: the session finalizes its analysis
// while the §5.1 ordering graphs build concurrently, and the shared
// back half of the checker (merge, cycle search, classification,
// lattice evaluation) runs over the result.
func (s *Stream) Finish() (*CheckResult, error) {
	if s.done {
		return nil, ErrStreamFinished
	}
	s.done = true
	// Feeding is over, so the session's accumulation is complete: the
	// ordering graphs can build while the session finalizes.
	h, err := s.sess.History()
	if err != nil {
		return nil, err
	}
	s.h = h
	orders := startOrderGraphs(s.h, s.opts)
	an, err := s.sess.Finish()
	if err != nil {
		orders.wg.Wait() // don't leave builder goroutines running
		return nil, err
	}
	return classify(s.h, s.opts, an, orders), nil
}

// History returns the accumulated history; valid after Finish, for
// callers that render history statistics or reports alongside the
// result.
func (s *Stream) History() *history.History { return s.h }

// RetireStats reports the session's resident/retired memory counters.
// The second result is false when the session does not track retirement
// (a workload session predating memory budgets).
func (s *Stream) RetireStats() (workload.RetireStats, bool) {
	if r, ok := s.sess.(workload.Retirer); ok {
		return r.RetireStats(), true
	}
	return workload.RetireStats{}, false
}

// Ops returns the number of completion ops ingested so far.
func (s *Stream) Ops() int { return s.ops }
