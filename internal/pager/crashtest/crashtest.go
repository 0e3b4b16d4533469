// Package crashtest simulates crashes at every write and sync boundary of
// a write-ahead-logged store and verifies recovery.
//
// A File is a crash-simulating pager.File: the sweeps run the real
// pager.FileStore and pager.FileLog over a pages File and a log File. A
// Media is the crash engine the files of one simulated machine share:
// every WriteAt, Truncate and Sync of any of them consumes one crash
// point, and when a configured budget runs out the operation fails with
// ErrCrash and the media is dead (every later operation fails too), like a
// machine losing power. A sweep first runs a workload with no budget to
// count its crash points, then replays it once per point per crash mode,
// reboots onto what survived (File.Survivor), recovers, and checks the
// recovered store.
//
// Three crash modes bracket real storage behavior:
//
//   - KeepAll: fail-stop. Every completed write survives, synced or not
//     (the OS flushed its caches) — including whatever meta record a
//     FileStore had finished writing.
//   - LoseUnsynced: each file reverts to its last Sync. The pessimistic
//     model fsync-based durability must survive.
//   - TearLast: fail-stop, and the write in flight at the crash applies
//     only a strict prefix — a torn page, meta record or log record.
package crashtest

import (
	"errors"
	"fmt"
	"io"
)

// ErrCrash is the typed failure every operation returns at and after the
// simulated crash point.
var ErrCrash = errors.New("crashtest: simulated crash")

// Mode selects what survives a crash.
type Mode int

const (
	KeepAll Mode = iota
	LoseUnsynced
	TearLast
)

// String implements fmt.Stringer for subtest names.
func (m Mode) String() string {
	switch m {
	case KeepAll:
		return "keepall"
	case LoseUnsynced:
		return "loseunsynced"
	case TearLast:
		return "tearlast"
	}
	return fmt.Sprintf("mode%d", int(m))
}

// Media is the shared crash engine for one simulated machine: the pages
// and log files of one WALStore must share a Media so a single crash stops
// both.
type Media struct {
	mode    Mode
	budget  int // crash at the budget-th point; 0 = run forever
	points  int
	crashed bool
}

// NewMedia returns a media that crashes at the budget-th crash point
// (1-based); budget 0 never crashes and just counts points.
func NewMedia(mode Mode, budget int) *Media {
	return &Media{mode: mode, budget: budget}
}

// Points returns the number of crash points consumed so far.
func (m *Media) Points() int { return m.points }

// Crashed reports whether the crash point has been reached.
func (m *Media) Crashed() bool { return m.crashed }

// hit consumes one crash point and reports whether this operation crashes.
func (m *Media) hit() bool {
	if m.crashed {
		return true
	}
	m.points++
	if m.budget > 0 && m.points >= m.budget {
		m.crashed = true
		return true
	}
	return false
}

// tearCut picks a deterministic strict-prefix length for a torn write,
// varying with the crash point so different sweep iterations tear at
// different offsets.
func (m *Media) tearCut(n int) int {
	if n <= 1 {
		return 0
	}
	return 1 + (m.points*37)%(n-1)
}

// File is a crash-simulating pager.File: writes and truncations apply to a
// volatile image, which Sync makes the synced one.
type File struct {
	m        *Media
	volatile []byte
	synced   []byte
}

// NewFile returns an empty file on the given media.
func NewFile(m *Media) *File { return &File{m: m} }

// ReadAt implements io.ReaderAt over the volatile image.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.m.crashed {
		return 0, ErrCrash
	}
	if off < 0 {
		return 0, fmt.Errorf("crashtest: read at %d", off)
	}
	if off >= int64(len(f.volatile)) {
		return 0, io.EOF
	}
	n := copy(p, f.volatile[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt; a crash point, and in TearLast mode the
// crashing write leaves a strict prefix behind.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("crashtest: write at %d", off)
	}
	if f.m.hit() {
		if f.m.mode == TearLast {
			f.write(p[:f.m.tearCut(len(p))], off)
		}
		return 0, ErrCrash
	}
	f.write(p, off)
	return len(p), nil
}

func (f *File) write(p []byte, off int64) {
	if len(p) == 0 {
		return
	}
	if grow := off + int64(len(p)) - int64(len(f.volatile)); grow > 0 {
		f.volatile = append(f.volatile, make([]byte, grow)...)
	}
	copy(f.volatile[off:], p)
}

// Truncate implements pager.File; a crash point. Like a real file system,
// an unsynced truncation can be lost (LoseUnsynced reverts to the last
// synced image).
func (f *File) Truncate(size int64) error {
	if f.m.hit() {
		return ErrCrash
	}
	if size < 0 || size > int64(len(f.volatile)) {
		return fmt.Errorf("crashtest: truncate to %d of %d", size, len(f.volatile))
	}
	f.volatile = f.volatile[:size]
	return nil
}

// Sync implements pager.File; a crash point. On success the volatile
// image becomes the synced one.
func (f *File) Sync() error {
	if f.m.hit() {
		return ErrCrash
	}
	f.synced = append(f.synced[:0], f.volatile...)
	return nil
}

// Seek implements io.Seeker for the one use the stores make of it: their
// size, Seek(0, io.SeekEnd). The file has no cursor to move.
func (f *File) Seek(off int64, whence int) (int64, error) {
	if f.m.crashed {
		return 0, ErrCrash
	}
	if whence != io.SeekEnd {
		return 0, fmt.Errorf("crashtest: seek whence %d", whence)
	}
	return int64(len(f.volatile)) + off, nil
}

// Close implements pager.File. The file stays usable: a store reopened on
// the same machine finds it again.
func (f *File) Close() error {
	if f.m.crashed {
		return ErrCrash
	}
	return nil
}

// Survivor returns the file a reboot would find, on fresh media: the
// synced image in LoseUnsynced mode, else every completed (or torn) write.
func (f *File) Survivor(m *Media) *File {
	src := f.volatile
	if f.m.mode == LoseUnsynced {
		src = f.synced
	}
	return &File{
		m:        m,
		volatile: append([]byte(nil), src...),
		synced:   append([]byte(nil), src...),
	}
}
