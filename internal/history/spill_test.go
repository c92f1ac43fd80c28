package history

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/op"
)

// jsonSegments is a SegmentCodec for this package's own tests: the
// production codec, binhist.Segments, imports this package.
type jsonSegments struct{}

func (jsonSegments) AppendOps(dst []byte, ops []op.Op) ([]byte, error) {
	b, err := json.Marshal(ops)
	return append(dst, b...), err
}

func (jsonSegments) Decode(b []byte, fn func(op.Op) error) error {
	var ops []op.Op
	if err := json.Unmarshal(b, &ops); err != nil {
		return err
	}
	for _, o := range ops {
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}

// spilledStream returns a stream whose retired segments all sit in a
// spill file.
func spilledStream(t *testing.T) *Stream {
	t.Helper()
	s := NewStream()
	s.SetBudget(Budget{Window: 8, Codec: jsonSegments{}, SpillDir: t.TempDir()})
	for i := 0; i < 200; i++ {
		if err := s.Add(op.Txn(i, i%3, op.OK, op.Mop{F: op.FAppend, Key: "k", Arg: i})); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.RetireStats(); st.Segments < 2 || st.RetiredBytes != 0 || st.Degraded != "" {
		t.Fatalf("expected several spilled segments; stats %+v", st)
	}
	return s
}

// mustFailHistory demands History return an error mentioning want, twice
// over (a failed rehydration caches nothing).
func mustFailHistory(t *testing.T, s *Stream, want string) {
	t.Helper()
	for range 2 {
		h, err := s.History()
		if err == nil || h != nil {
			t.Fatalf("History() = %v, %v; want an error", h, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("History() error %q does not mention %q", err, want)
		}
	}
}

func TestHistoryUnreadableSpill(t *testing.T) {
	s := spilledStream(t)
	s.retired.spill.f.Close()
	mustFailHistory(t, s, "spill read")
}

func TestHistoryCorruptSpill(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(f *os.File, ref spillRef) error
	}{
		{"flipped byte", "checksum", func(f *os.File, ref spillRef) error {
			b := make([]byte, 1)
			at := ref.off + int64(ref.len/2)
			if _, err := f.ReadAt(b, at); err != nil {
				return err
			}
			b[0] ^= 0x01
			_, err := f.WriteAt(b, at)
			return err
		}},
		{"torn extent", "spill read", func(f *os.File, ref spillRef) error {
			return f.Truncate(ref.off + int64(ref.len) - 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := spilledStream(t)
			segs := s.retired.segs
			if err := c.corrupt(s.retired.spill.f, segs[len(segs)-1].ref); err != nil {
				t.Fatal(err)
			}
			mustFailHistory(t, s, c.want)
		})
	}
}
