package history

import (
	"testing"

	"repro/internal/op"
)

// TestStreamMatchesNew feeds valid complete and compact histories
// through the Stream and checks the result is indistinguishable from
// New over the same ops: same pairing, same spans, same derived views.
func TestStreamMatchesNew(t *testing.T) {
	complete := []op.Op{
		{Index: 0, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 1, Process: 1, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		{Index: 2, Process: 0, Type: op.OK, Mops: []op.Mop{op.Append("x", 1)}},
		{Index: 3, Process: 1, Type: op.OK, Mops: []op.Mop{op.ReadList("x", []int{1})}},
		{Index: 4, Process: 0, Type: op.Invoke, Mops: []op.Mop{op.Append("x", 2)}},
		{Index: 5, Process: 0, Type: op.Fail, Mops: []op.Mop{op.Append("x", 2)}},
		{Index: 6, Process: 2, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}},
		// Process 2 crashes: no completion.
	}
	compact := []op.Op{
		op.Txn(0, 0, op.OK, op.Append("x", 1)),
		op.Txn(1, 1, op.OK, op.ReadList("x", []int{1})),
		op.Txn(2, 0, op.Fail, op.Append("x", 2)),
	}
	for name, ops := range map[string][]op.Op{"complete": complete, "compact": compact} {
		t.Run(name, func(t *testing.T) {
			want := MustNew(ops)
			s := NewStream()
			// Feed in two chunks to cross a chunk boundary mid-pairing.
			if err := s.AddAll(ops[:3]); err != nil {
				t.Fatal(err)
			}
			if err := s.AddAll(ops[3:]); err != nil {
				t.Fatal(err)
			}
			got, err := s.History()
			if err != nil {
				t.Fatal(err)
			}
			if got.Compact() != want.Compact() {
				t.Fatalf("compact = %v, want %v", got.Compact(), want.Compact())
			}
			if got.Len() != want.Len() {
				t.Fatalf("len = %d, want %d", got.Len(), want.Len())
			}
			for pos := range want.Ops {
				if want.Ops[pos].Type == op.Invoke {
					continue
				}
				wi, wc := want.Span(pos)
				gi, gc := got.Span(pos)
				if wi != gi || wc != gc {
					t.Fatalf("span at pos %d: stream (%d,%d), batch (%d,%d)", pos, gi, gc, wi, wc)
				}
				sp := s.SpanOf(want.Ops[pos].Index)
				if sp[0] != wi || sp[1] != wc {
					t.Fatalf("SpanOf(%d) = %v, batch (%d,%d)", want.Ops[pos].Index, sp, wi, wc)
				}
			}
			if len(got.Completions()) != len(want.Completions()) {
				t.Fatal("completions diverge")
			}
			if s.Completions() != len(want.Completions()) {
				t.Fatalf("Completions() = %d, want %d", s.Completions(), len(want.Completions()))
			}
		})
	}
}

// TestStreamErrors checks the structural rejections: each error matches
// what New reports for the same malformed batch, plus the
// streaming-only ordering rule, and errors are sticky.
func TestStreamErrors(t *testing.T) {
	invoke := func(idx, proc int) op.Op {
		return op.Op{Index: idx, Process: proc, Type: op.Invoke, Mops: []op.Mop{op.Read("x")}}
	}
	okOp := func(idx, proc int) op.Op {
		return op.Op{Index: idx, Process: proc, Type: op.OK, Mops: []op.Mop{op.ReadNil("x")}}
	}

	t.Run("duplicate index", func(t *testing.T) {
		s := NewStream()
		if err := s.AddAll([]op.Op{okOp(0, 0), okOp(0, 1)}); err == nil {
			t.Fatal("expected duplicate-index error")
		}
	})
	t.Run("out of order", func(t *testing.T) {
		s := NewStream()
		if err := s.AddAll([]op.Op{okOp(5, 0), okOp(2, 1)}); err == nil {
			t.Fatal("expected ordering error")
		}
	})
	t.Run("double invocation", func(t *testing.T) {
		s := NewStream()
		err := s.AddAll([]op.Op{invoke(0, 3), invoke(1, 3)})
		if err == nil {
			t.Fatal("expected double-invocation error")
		}
		if _, werr := New([]op.Op{invoke(0, 3), invoke(1, 3)}); werr == nil || werr.Error() != err.Error() {
			t.Fatalf("stream error %q != batch error %q", err, werr)
		}
	})
	t.Run("completion without invocation", func(t *testing.T) {
		ops := []op.Op{invoke(0, 1), okOp(1, 1), okOp(2, 2)}
		s := NewStream()
		err := s.AddAll(ops)
		if err == nil {
			t.Fatal("expected pairing error")
		}
		if _, werr := New(ops); werr == nil || werr.Error() != err.Error() {
			t.Fatalf("stream error %q != batch error %q", err, werr)
		}
	})
	t.Run("retroactive compact violation", func(t *testing.T) {
		// A completion accepted in compact mode becomes invalid the
		// moment an invoke appears; New rejects the same batch.
		ops := []op.Op{okOp(0, 0), invoke(1, 1)}
		s := NewStream()
		err := s.AddAll(ops)
		if err == nil {
			t.Fatal("expected retroactive pairing error")
		}
		if _, werr := New(ops); werr == nil || werr.Error() != err.Error() {
			t.Fatalf("stream error %q != batch error %q", err, werr)
		}
	})
	t.Run("sticky", func(t *testing.T) {
		s := NewStream()
		first := s.AddAll([]op.Op{okOp(0, 0), okOp(0, 1)})
		if first == nil {
			t.Fatal("expected error")
		}
		if again := s.Add(okOp(9, 9)); again == nil || again.Error() != first.Error() {
			t.Fatalf("error not sticky: %v then %v", first, again)
		}
		if s.Err() == nil {
			t.Fatal("Err() should report the sticky error")
		}
	})
}
