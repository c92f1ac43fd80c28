//go:build linux

package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/consistency"
	"repro/internal/memdb"
	"repro/internal/workload"
)

// spillFD finds the descriptor of the one spill file open under dir.
// Spill files are unlinked at creation, so the descriptor is the only
// way back to the bytes; /proc/self/fd names it.
func spillFD(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	fd := -1
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(target, dir+string(filepath.Separator)+"elle-retired-") {
			continue
		}
		if fd >= 0 {
			t.Fatalf("more than one spill file open under %s", dir)
		}
		if fd, err = strconv.Atoi(e.Name()); err != nil {
			t.Fatal(err)
		}
	}
	if fd < 0 {
		t.Fatalf("no spill file open under %s", dir)
	}
	return fd
}

// TestBudgetedFinishRejectsCorruptSpill flips one byte of a spilled
// segment mid-stream, for every registered workload (the native list
// and register sessions and the buffer-then-batch adapter): Finish must
// return an error, never a report over a silently altered history.
func TestBudgetedFinishRejectsCorruptSpill(t *testing.T) {
	for _, info := range workload.All() {
		w := Workload(info.Name)
		t.Run(string(w), func(t *testing.T) {
			h := genHistory(t, w, memdb.SnapshotIsolation, memdb.Faults{RetryStompProb: 0.5, RetryRebaseProb: 1}, 1, 300)
			opts := OptsFor(w, consistency.StrictSerializable)
			opts.MemoryBudget = 16
			opts.SpillDir = t.TempDir()
			st := CheckStream(opts)
			if _, err := st.Feed(h.Ops); err != nil {
				t.Fatal(err)
			}
			rs, _ := st.RetireStats()
			if rs.Stream.SpilledBytes == 0 {
				t.Fatalf("nothing spilled; stats %+v", rs.Stream)
			}

			fd := spillFD(t, opts.SpillDir)
			b := make([]byte, 1)
			at := rs.Stream.SpilledBytes / 2
			if _, err := syscall.Pread(fd, b, at); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x01
			if _, err := syscall.Pwrite(fd, b, at); err != nil {
				t.Fatal(err)
			}

			res, err := st.Finish()
			if err == nil || res != nil {
				t.Fatalf("Finish over a corrupt spill returned a report (err %v); want an error", err)
			}
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("Finish error %q does not name the checksum", err)
			}
		})
	}
}
