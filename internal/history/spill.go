package history

import (
	"fmt"
	"hash/crc32"
	"os"
)

// castagnoli is the CRC32C table every spill extent is checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// A spill is an append-only scratch file for retired segments. The
// backing file is unlinked the moment it is created, so it occupies
// directory namespace for microseconds and disk space for exactly the
// lifetime of the open descriptor — a crash, a kill, or plain garbage
// collection of the *os.File reclaims it without cleanup code.
type spill struct {
	f   *os.File
	off int64
}

// spillRef locates one extent in a spill and carries the CRC32C of the
// bytes written there, so a flipped or torn extent reads back as an
// error rather than as a wrong segment.
type spillRef struct {
	off int64
	len int
	crc uint32
}

// newSpill creates an anonymous spill file in dir ("" means the system
// temporary directory).
func newSpill(dir string) (*spill, error) {
	f, err := os.CreateTemp(dir, "elle-retired-*.seg")
	if err != nil {
		return nil, fmt.Errorf("history: creating spill file: %w", err)
	}
	// Unlink immediately: the kernel keeps the inode alive while the
	// descriptor is open, and reclaims it unconditionally on close or
	// process death.
	os.Remove(f.Name())
	return &spill{f: f}, nil
}

// append writes b at the end of the spill and returns its extent.
func (sp *spill) append(b []byte) (spillRef, error) {
	ref := spillRef{off: sp.off, len: len(b), crc: crc32.Checksum(b, castagnoli)}
	if _, err := sp.f.WriteAt(b, sp.off); err != nil {
		return spillRef{}, fmt.Errorf("history: spill write: %w", err)
	}
	sp.off += int64(len(b))
	return ref, nil
}

// read returns the extent at ref, appending into buf (which may be nil)
// to let callers reuse one buffer across segments. A short read or a
// checksum mismatch is an error.
func (sp *spill) read(ref spillRef, buf []byte) ([]byte, error) {
	if cap(buf) < ref.len {
		buf = make([]byte, ref.len)
	}
	buf = buf[:ref.len]
	if n, err := sp.f.ReadAt(buf, ref.off); n < ref.len {
		return nil, fmt.Errorf("history: spill read at offset %d: %w", ref.off, err) // ReadAt: n < len means err != nil
	}
	if crc32.Checksum(buf, castagnoli) != ref.crc {
		return nil, fmt.Errorf("history: spill extent at offset %d (%d bytes) fails its checksum", ref.off, ref.len)
	}
	return buf, nil
}

// size returns the bytes written so far.
func (sp *spill) size() int64 { return sp.off }

// close releases the descriptor (and with it the unlinked file's disk
// space). Reads after close fail.
func (sp *spill) close() error { return sp.f.Close() }
