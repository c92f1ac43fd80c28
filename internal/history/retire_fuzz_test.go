package history_test

import (
	"reflect"
	"testing"

	"repro/internal/history"
	"repro/internal/op"
)

// retireOpsFromBytes derives an op sequence from fuzz input, the same
// way FuzzHistoryNew does: 3-byte groups drive completion type, process,
// index spacing, and body, so the corpus explores compact and paired
// streams, pairing violations, duplicate indices, and mixed mop shapes.
// Ops are constructor-built (canonical field encodings), so a codec
// round-trip of a retired segment must reproduce them exactly.
func retireOpsFromBytes(data []byte) []op.Op {
	var ops []op.Op
	index := 0
	elem := 0
	for i := 0; i+2 < len(data); i += 3 {
		t := op.Type(data[i] & 3)
		if data[i]&16 != 0 {
			t = op.Invoke
		}
		process := int(data[i] >> 2 & 3)
		index += int(data[i+1] & 3)
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

// FuzzStreamRetirement: a stream under a tiny retirement budget must be
// observationally identical to an unbudgeted stream fed the same ops —
// same acceptance or rejection at the same op, same rehydrated history
// (ops, spans, compactness), and a Replay that reproduces exactly the
// accepted sequence. The budget only changes where bytes live, never
// what the stream means.
func FuzzStreamRetirement(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0, 1, 1, 2, 1, 2, 3, 1, 0})            // compact mix
	f.Add([]byte{0, 16, 1, 0, 1, 1, 1, 16, 1, 0, 5, 1, 1})       // paired spans
	f.Add([]byte{2, 16, 1, 0, 20, 1, 1, 0, 1, 1, 16, 1, 2})      // interleaved processes
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0})                           // duplicate indices
	f.Add([]byte{3, 1, 1, 2, 16, 1, 0, 1, 1, 1, 16, 1, 0, 1, 1}) // compact turning complete

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := 1 + int(data[0]&3)
		spill := ""
		if data[0]&4 != 0 {
			spill = t.TempDir()
		}
		ops := retireOpsFromBytes(data[1:])

		plain := history.NewStream()
		var perr error
		accepted := 0
		for _, o := range ops {
			if perr = plain.Add(o); perr != nil {
				break
			}
			accepted++
		}

		budgeted := history.NewStream()
		budgeted.SetBudget(budget(window, spill))
		var berr error
		for _, o := range ops {
			if berr = budgeted.Add(o); berr != nil {
				break
			}
		}

		if (perr == nil) != (berr == nil) || (perr != nil && perr.Error() != berr.Error()) {
			t.Fatalf("acceptance diverged: plain err=%v, budgeted err=%v", perr, berr)
		}

		st := budgeted.RetireStats()
		if st.Degraded != "" {
			t.Fatalf("retirement degraded: %s", st.Degraded)
		}
		if st.ResidentOps+st.RetiredOps != accepted {
			t.Fatalf("resident %d + retired %d != accepted %d",
				st.ResidentOps, st.RetiredOps, accepted)
		}

		// Replay must reproduce exactly the accepted prefix, segment
		// decode included.
		var replayed []op.Op
		if err := budgeted.Replay(func(o op.Op) error {
			replayed = append(replayed, o)
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if !reflect.DeepEqual(replayed, ops[:accepted]) {
			t.Fatalf("replay diverged: %d ops, want %d (or contents differ)", len(replayed), accepted)
		}

		if perr != nil {
			return
		}
		ph, bh := mustHistory(t, plain), mustHistory(t, budgeted)
		if !reflect.DeepEqual(ph.Ops, bh.Ops) {
			t.Fatalf("rehydrated ops diverged: %d vs %d", len(bh.Ops), len(ph.Ops))
		}
		if ph.Compact() != bh.Compact() {
			t.Fatalf("compactness diverged: plain %v, budgeted %v", ph.Compact(), bh.Compact())
		}
		for pos := range ph.Ops {
			pi, pc := ph.Span(pos)
			bi, bc := bh.Span(pos)
			if pi != bi || pc != bc {
				t.Fatalf("span(%d) diverged: plain [%d %d], budgeted [%d %d]", pos, pi, pc, bi, bc)
			}
		}
	})
}
