package history

import (
	"sort"
	"testing"

	"repro/internal/op"
)

// opsFromBytes deterministically derives an op sequence from fuzz
// input: each 3-byte group becomes one op whose completion type,
// process, index spacing, and body are driven by the bytes. Index
// deltas of zero produce duplicate indices, odd process/type mixes
// produce pairing violations — exactly the error paths New and Stream
// must agree on.
func opsFromBytes(data []byte) []op.Op {
	var ops []op.Op
	index := 0
	elem := 0
	for i := 0; i+2 < len(data); i += 3 {
		t := op.Type(data[i] & 3)
		process := int(data[i] >> 2 & 3)
		index += int(data[i+1] & 3) // 0 keeps the previous index: a duplicate
		var mops []op.Mop
		switch data[i+2] & 3 {
		case 0:
			elem++
			mops = []op.Mop{op.Append("x", elem)}
		case 1:
			mops = []op.Mop{op.Read("y")}
		case 2:
			elem++
			mops = []op.Mop{op.Append("y", elem), op.Read("x")}
		}
		ops = append(ops, op.Op{Index: index, Process: process, Type: t, Mops: mops})
	}
	return ops
}

// FuzzHistoryNew: New must never panic, and Stream fed the same ops in
// sorted order must agree with it — same acceptance, same error, and
// the same validated history. This is the batch/stream parity contract
// the incremental checker rests on.
func FuzzHistoryNew(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 2, 1, 2})          // ok/ok/fail compact
	f.Add([]byte{0, 0, 0})                            // duplicate index
	f.Add([]byte{4, 1, 0, 1, 1, 1})                   // invoke then ok
	f.Add([]byte{1, 1, 0, 4, 1, 1, 1, 1, 2})          // completion before invoke
	f.Add([]byte{4, 1, 0, 4, 1, 1})                   // double invoke, one process
	f.Add([]byte{0, 1, 1, 4, 1, 0, 1, 1, 1, 2, 1, 2}) // compact turning complete

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := opsFromBytes(data)
		h, err := New(ops)

		sorted := make([]op.Op, len(ops))
		copy(sorted, ops)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
		s := NewStream()
		var serr error
		for _, o := range sorted {
			if serr = s.Add(o); serr != nil {
				break
			}
		}

		if (err == nil) != (serr == nil) {
			t.Fatalf("parity broken: New err=%v, Stream err=%v", err, serr)
		}
		if err != nil {
			// Both reject. The messages may legitimately differ: New
			// validates in passes (all duplicate indices first), while a
			// stream must reject at the first offending op it sees.
			return
		}
		sh, err := s.History()
		if err != nil {
			t.Fatal(err)
		}
		if h.Len() != sh.Len() || h.Compact() != sh.Compact() {
			t.Fatalf("shape diverged: New len=%d compact=%v, Stream len=%d compact=%v",
				h.Len(), h.Compact(), sh.Len(), sh.Compact())
		}
		for pos := range h.Ops {
			if h.Ops[pos].Index != sh.Ops[pos].Index {
				t.Fatalf("op order diverged at position %d", pos)
			}
			hi, hc := h.Span(pos)
			si, sc := sh.Span(pos)
			if hi != si || hc != sc {
				t.Fatalf("span diverged at position %d: New [%d,%d], Stream [%d,%d]",
					pos, hi, hc, si, sc)
			}
		}
		// The interners must assign identical IDs: analyzers index
		// KeyID-keyed state interchangeably across batch and stream.
		if h.Keys().Len() != sh.Keys().Len() {
			t.Fatalf("interner diverged: %d vs %d keys", h.Keys().Len(), sh.Keys().Len())
		}
		for id := 0; id < h.Keys().Len(); id++ {
			if h.Keys().Key(KeyID(id)) != sh.Keys().Key(KeyID(id)) {
				t.Fatalf("key id %d diverged: %q vs %q",
					id, h.Keys().Key(KeyID(id)), sh.Keys().Key(KeyID(id)))
			}
		}
	})
}
