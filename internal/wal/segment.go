package wal

import (
	"fmt"
	"os"
	"sync"
)

// Segment is one durable append-only stream of frames behind a fixed
// header: every byte written so far, the durable watermark that marks
// the synced prefix, and an optional backing file. A Log is a sequence
// of Segments; the coordinator journal is a single one. Both therefore
// share one durability discipline — what Sync made durable is what a
// simulated crash (Kill) keeps, what DurableAt serves a tailer, and
// what the ship callback has already seen.
type Segment struct {
	mu      sync.Mutex
	path    string
	file    *os.File
	buf     []byte
	durable int
	crashed bool
	// frames counts appended frames; durableFrames is frames at the
	// last sync — the records provably inside the durable prefix.
	frames, durableFrames uint64
	ship                  func(off int, data []byte)
}

// OpenSegment creates a segment holding header. An empty path keeps it
// in memory (the simulated crash controls exactly which bytes "reached
// disk" either way); otherwise the file is created and must not exist.
// Nothing is durable until the first Sync. ship, when non-nil,
// receives every newly durable byte range (offset from the segment
// start, and a copy of the bytes) inside the sync, before it returns —
// the replication seam. It runs under the segment's mutex and must not
// call back into the segment.
func OpenSegment(path string, header []byte, ship func(off int, data []byte)) (*Segment, error) {
	s := &Segment{path: path, buf: append([]byte(nil), header...), ship: ship}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(header); err != nil {
			f.Close()
			return nil, err
		}
		s.file = f
	}
	return s, nil
}

// Append frames payload onto the segment, and syncs when force is set.
// It returns ErrCrashed once the simulated process has died.
func (s *Segment) Append(payload []byte, force bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if err := s.writeLocked(AppendFrame(nil, payload)); err != nil {
		return err
	}
	if force {
		_, err := s.syncLocked()
		return err
	}
	return nil
}

// writeLocked appends already-framed bytes.
func (s *Segment) writeLocked(frame []byte) error {
	s.buf = append(s.buf, frame...)
	s.frames++
	if s.file != nil {
		if _, err := s.file.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// syncLocked makes every written byte durable and ships it; flushed
// reports whether there was anything to flush.
func (s *Segment) syncLocked() (flushed bool, err error) {
	if s.durable == len(s.buf) {
		return false, nil
	}
	if s.file != nil {
		if err := s.file.Sync(); err != nil {
			return false, err
		}
	}
	prev := s.durable
	s.durable = len(s.buf)
	s.durableFrames = s.frames
	if s.ship != nil {
		s.ship(prev, append([]byte(nil), s.buf[prev:]...))
	}
	return true, nil
}

// Sync forces everything appended so far.
func (s *Segment) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	_, err := s.syncLocked()
	return err
}

// Kill applies a simulated process death now: the surviving image is
// the durable prefix. Idempotent.
func (s *Segment) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.crashed {
		s.crashLocked(s.buf[:s.durable])
	}
}

// crashLocked freezes the segment at image (the durable prefix, or a
// crash mode's torn or flipped variant of it) and mirrors the image
// onto the backing file.
func (s *Segment) crashLocked(image []byte) {
	s.crashed = true
	s.buf = image
	s.durable = len(image)
	if s.file != nil {
		s.file.Close()
		s.file = nil
		_ = os.WriteFile(s.path, image, 0o644)
	}
}

// Crashed reports whether the simulated process has died.
func (s *Segment) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Image returns the on-"disk" image: the surviving bytes after a
// crash, the full written image before one.
func (s *Segment) Image() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...)
}

// DurableRecords counts the frames inside the durable prefix — the
// primary-side operand of the replication lag gauge (buffered frames
// are excluded until synced).
func (s *Segment) DurableRecords() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableFrames
}

// DurableAt reads up to max durable bytes starting at byte offset off
// (header included) — the pull side of tailing; more reports durable
// bytes past the returned ones. A crashed segment still serves its
// frozen durable image. An offset beyond the durable watermark is a
// caller bug (a tailer ahead of its source) and returns an error.
func (s *Segment) DurableAt(off, max int) (data []byte, more bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off > s.durable {
		return nil, false, fmt.Errorf("wal: offset %d beyond durable watermark %d", off, s.durable)
	}
	end := s.durable
	if max > 0 && off+max < end {
		end = off + max
	}
	return append([]byte(nil), s.buf[off:end]...), end < s.durable, nil
}

// Close syncs and closes the segment (a no-op after a crash: the dead
// process cannot flush).
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil
	}
	if _, err := s.syncLocked(); err != nil {
		return err
	}
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		return err
	}
	return nil
}
