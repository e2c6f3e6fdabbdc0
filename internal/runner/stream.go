package runner

import (
	"context"
	"fmt"
	"os"
	"sync"
)

// StreamLog is the append-only byte log a running job's event stream is
// captured in. Writers append whole JSONL lines; any number of readers
// follow from any offset, so an SSE subscriber that attaches mid-run
// replays the prefix and then tails live appends. Concatenating everything
// a reader sees reconstructs the exact bytes the writer produced — the
// byte-identity the `scalabletcc/events v1` framing promises.
//
// Close marks the end of the stream; writes after Close are silently
// dropped (an abandoned job goroutine may still be running — same policy
// as harness and fuzz wall-clock guards).
//
// A finished log can be spilled to a file (Spill): the in-memory buffer is
// dropped and every later read is served from the file, so a daemon does
// not hold every finished job's stream in memory.
type StreamLog struct {
	mu     sync.Mutex
	buf    []byte // the appended bytes; nil once spilled
	n      int    // bytes appended so far
	path   string // spill file holding all n bytes; "" while in memory
	sealed bool   // no more appends: set by Spill and Close
	closed bool
	// notify is armed (made) by a reader that finds nothing to read, and
	// closed and cleared by the next append or Close. A write nobody waits
	// on allocates nothing.
	notify chan struct{}
}

// NewStreamLog returns an empty open log.
func NewStreamLog() *StreamLog {
	return &StreamLog{}
}

// Write appends p. It never fails: after Close (or Spill) the bytes are
// discarded but the write still reports success, so a late writer does not
// error out.
func (l *StreamLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return len(p), nil
	}
	l.buf = append(l.buf, p...)
	l.n = len(l.buf)
	l.wake()
	return len(p), nil
}

// Close marks the stream complete and wakes all waiting readers.
func (l *StreamLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.sealed, l.closed = true, true
		l.wake()
	}
}

// wake broadcasts to waiters, if any armed the channel; callers hold l.mu.
func (l *StreamLog) wake() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// Spill seals the log against further appends, writes its bytes to path and
// drops the in-memory buffer; reads from any offset are then served from
// the file and Len is unchanged. Readers are not woken: the stream is only
// complete once Close is called. An empty log writes no file. On a write
// error the bytes stay in memory, still readable, and the error is
// returned.
func (l *StreamLog) Spill(path string) error {
	l.mu.Lock()
	l.sealed = true
	data := l.buf
	l.mu.Unlock()
	if len(data) == 0 {
		return nil
	}
	// Sealed, so data is final and no one appends to it while it is written.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("runner: spill event log: %w", err)
	}
	l.mu.Lock()
	l.path, l.buf = path, nil
	l.mu.Unlock()
	return nil
}

// Len returns the number of bytes appended so far.
func (l *StreamLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// ReadFrom returns the bytes from offset off onward and whether the stream
// is complete. An offset at or beyond the end returns nil data. The bytes
// are a read-only view that later appends never change; an error means the
// spill file could not be read.
func (l *StreamLog) ReadFrom(off int) (data []byte, closed bool, err error) {
	l.mu.Lock()
	return l.readUnlock(off)
}

// Wait blocks until there are bytes beyond off, the stream closes, or ctx
// is done, then returns the new bytes (as ReadFrom does) and the closed
// flag.
func (l *StreamLog) Wait(ctx context.Context, off int) (data []byte, closed bool, err error) {
	for {
		l.mu.Lock()
		if off < l.n || l.closed {
			return l.readUnlock(off)
		}
		if l.notify == nil {
			l.notify = make(chan struct{})
		}
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// readUnlock is ReadFrom's body. Callers hold l.mu; it is released before
// a spill file is read. In memory the bytes are a capacity-clipped view of
// the buffer: bytes below the length are never rewritten, and the clip
// keeps a caller's append out of the writer's spare capacity.
func (l *StreamLog) readUnlock(off int) ([]byte, bool, error) {
	closed, path, n := l.closed, l.path, l.n
	var data []byte
	if off < n && path == "" {
		data = l.buf[off:n:n]
	}
	l.mu.Unlock()
	if off >= n || path == "" {
		return data, closed, nil
	}
	data, err := readSpill(path, off, n)
	return data, closed, err
}

// readSpill reads bytes [off, n) of a spill file.
func readSpill(path string, off, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runner: read spilled event log: %w", err)
	}
	defer f.Close()
	data := make([]byte, n-off)
	if _, err := f.ReadAt(data, int64(off)); err != nil {
		return nil, fmt.Errorf("runner: read spilled event log: %w", err)
	}
	return data, nil
}
