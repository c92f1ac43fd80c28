package history

import (
	"fmt"

	"repro/internal/op"
)

// Stream incrementally validates and accumulates an observation that
// arrives in chunks — the history-side half of the streaming checker.
// It enforces the same structural rules as New (index uniqueness,
// invoke/completion pairing, one outstanding invocation per process)
// as each op arrives, so a malformed stream fails at the offending
// chunk instead of at the end, and maintains the invoke/completion
// index spans analyzers need without re-walking the prefix.
//
// One streaming-only restriction applies: ops must arrive in strictly
// ascending Index order. New can sort a batch before validating;
// a stream cannot reorder what it has already analyzed.
//
// A Stream normally retains every accepted op. SetBudget bounds that:
// once a retirement window is configured, settled prefixes — ops whose
// invoke/completion spans are closed and fall behind the window — are
// encoded into compact immutable segments (optionally spilled to disk)
// and released from the live slices, making resident memory O(window)
// instead of O(history). History transparently rehydrates the segments.
type Stream struct {
	// ops is the live tail. The op at stream position p (0-based over
	// every accepted op) lives at ops[p-base]; positions below base have
	// been retired into segments. completion/invocation are aligned with
	// ops and store global positions.
	ops        []op.Op
	base       int
	completion []int
	invocation []int
	open       map[int]int    // process -> global position of outstanding invoke
	spans      map[int][2]int // completion op index -> [invoke index, completion index]

	keys *Interner

	hasInvoke     bool
	firstComp     int // op index of the first completion accepted in compact mode
	firstCompProc int // its process, for the retroactive pairing error
	lastIndex     int // Index of the most recently accepted op, -1 when none
	completions   int

	budget  Budget
	retired retired
	hist    *History // cached rehydration; only set once segments exist

	err error // sticky: a stream that errored stays errored
}

// NewStream returns an empty Stream.
func NewStream() *Stream {
	return &Stream{open: map[int]int{}, firstComp: -1, lastIndex: -1, keys: NewInterner()}
}

// Keys returns the stream's live key interner: every key of every
// accepted op, assigned dense KeyIDs in arrival order — the same IDs
// New assigns the same observation, since streams are index-ordered.
// It grows as ops are accepted; between Adds it is safe to read.
func (s *Stream) Keys() *Interner { return s.keys }

// Add validates and ingests one op. Errors are sticky: once Add fails,
// every later call returns the same error.
func (s *Stream) Add(o op.Op) error {
	if s.err != nil {
		return s.err
	}
	if err := s.add(o); err != nil {
		s.err = err
		return err
	}
	s.lastIndex = o.Index
	s.maybeRetire()
	return nil
}

// AddAll ingests ops in order, stopping at the first error.
func (s *Stream) AddAll(ops []op.Op) error {
	for _, o := range ops {
		if err := s.Add(o); err != nil {
			return err
		}
	}
	return nil
}

// add validates o fully before mutating any state, so a rejected op
// leaves no trace: History over a stream that errored contains only
// the ops accepted before the failure.
func (s *Stream) add(o op.Op) error {
	if s.base+len(s.ops) > 0 {
		if o.Index == s.lastIndex {
			return &Error{Index: o.Index, Msg: "duplicate index"}
		}
		if o.Index < s.lastIndex {
			return &Error{Index: o.Index,
				Msg: fmt.Sprintf("arrived after index %d: a stream must be index-ordered", s.lastIndex)}
		}
	}

	if o.Type == op.Invoke {
		if !s.hasInvoke && s.firstComp >= 0 {
			// The stream looked compact until now; New over the same ops
			// would have rejected its first completion.
			return &Error{Index: s.firstComp,
				Msg: fmt.Sprintf("completion for process %d with no outstanding invocation", s.firstCompProc)}
		}
		if prev, ok := s.open[o.Process]; ok {
			return &Error{Index: o.Index,
				Msg: fmt.Sprintf("process %d invoked while op index %d is outstanding", o.Process, s.ops[prev-s.base].Index)}
		}
		s.hasInvoke = true
		s.open[o.Process] = s.append(o)
		return nil
	}

	if !s.hasInvoke {
		// Compact so far: the op completes atomically at its own index.
		s.append(o)
		s.completions++
		if s.firstComp < 0 {
			s.firstComp = o.Index
			s.firstCompProc = o.Process
		}
		s.setSpan(o.Index, o.Index, o.Index)
		return nil
	}
	inv, ok := s.open[o.Process]
	if !ok {
		return &Error{Index: o.Index,
			Msg: fmt.Sprintf("completion for process %d with no outstanding invocation", o.Process)}
	}
	pos := s.append(o)
	s.completions++
	delete(s.open, o.Process)
	s.completion[inv-s.base] = pos
	s.invocation[pos-s.base] = inv
	s.setSpan(o.Index, s.ops[inv-s.base].Index, o.Index)
	return nil
}

// append accepts o at the next stream position (global: retirement does
// not renumber) and returns that position.
func (s *Stream) append(o op.Op) int {
	pos := s.base + len(s.ops)
	for _, m := range o.Mops {
		s.keys.Intern(m.Key)
	}
	s.ops = append(s.ops, o)
	s.completion = append(s.completion, -1)
	s.invocation = append(s.invocation, -1)
	return pos
}

func (s *Stream) setSpan(index, invoke, complete int) {
	if s.spans == nil {
		s.spans = map[int][2]int{}
	}
	s.spans[index] = [2]int{invoke, complete}
}

// Len returns the number of ops ingested (including invokes and ops
// already retired into segments).
func (s *Stream) Len() int { return s.base + len(s.ops) }

// Completions returns the number of completion ops ingested.
func (s *Stream) Completions() int { return s.completions }

// Err returns the sticky error, if any.
func (s *Stream) Err() error { return s.err }

// SpanOf returns the invoke and completion indices bounding the
// completion op with the given index, matching History.Span. It returns
// [index, index] for unknown indices, which is also the compact answer.
func (s *Stream) SpanOf(index int) [2]int {
	if sp, ok := s.spans[index]; ok {
		return sp
	}
	return [2]int{index, index}
}

// History returns the accumulated ops as a validated History. It is
// equivalent to New over the same ops (which a streaming caller must
// have delivered in index order), without re-validating the stream.
// The History aliases the stream's internal state: take it once, when
// the stream is complete, and do not Add afterwards.
//
// If retirement has released any prefix (see SetBudget), History
// rehydrates it: every segment is decoded back, the full op sequence is
// re-validated through New, and the result is cached — an O(history)
// operation in time and memory, paid once at finish rather than
// throughout the stream's life. It returns an error, and caches
// nothing, when a spilled segment cannot be read back intact (the
// spill file lives unlinked on local disk for exactly the stream's
// lifetime, and each extent is checksummed) or when the rehydrated ops
// fail validation.
func (s *Stream) History() (*History, error) {
	if s.retired.ops == 0 {
		h := &History{Ops: s.ops, compact: !s.hasInvoke, keys: s.keys}
		if !h.compact {
			h.completion = s.completion
			h.invocation = s.invocation
		}
		return h, nil
	}
	if s.hist != nil {
		return s.hist, nil
	}
	ops := make([]op.Op, 0, s.retired.ops+len(s.ops))
	if err := s.Replay(func(o op.Op) error {
		ops = append(ops, o)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("history: rehydrating retired segments: %w", err)
	}
	h, err := New(ops)
	if err != nil {
		// Every op was validated incrementally on the way in; a segment
		// that decodes to something New rejects is a codec bug.
		return nil, fmt.Errorf("history: rehydrated stream failed validation: %w", err)
	}
	s.hist = h
	s.retired.closeSpill()
	return h, nil
}
