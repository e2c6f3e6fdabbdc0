package runner

import (
	"context"
	"fmt"
	"os"
	"sync"
)

// blockSize is the capacity of every StreamLog block, so block i holds
// stream bytes [i*blockSize, (i+1)*blockSize). It is the size at which
// obs.JSONLStream hands its writer a block of lines, so a job's stream
// fills about one block per write. A write is split across blocks rather
// than given a block of its own size, which the allocator would round up
// to whole pages.
const blockSize = 64 << 10

// StreamLog is the append-only byte log a running job's event stream is
// captured in. Writers append whole JSONL lines; any number of readers
// follow from any offset, so an SSE subscriber that attaches mid-run
// replays the prefix and then tails live appends. Concatenating everything
// a reader sees reconstructs the exact bytes the writer produced — the
// byte-identity the `scalabletcc/events v1` framing promises.
//
// The bytes are held in blocks of blockSize that are never reallocated:
// appends go into the tail block's spare capacity, and bytes below a
// block's length are never rewritten. So a growing stream is copied once,
// on its way in, and a reader's view of a block stays valid however much
// is appended after it.
//
// Close marks the end of the stream. The queue closes a job's log only
// after its executor has returned, so no writer is left; a write after
// Close or Spill is dropped, which keeps a spilled log equal to its file.
//
// A finished log can be spilled to a file (Spill): the in-memory blocks are
// dropped and every later read is served from the file, so a daemon does
// not hold every finished job's stream in memory.
type StreamLog struct {
	mu     sync.Mutex
	blocks [][]byte // the appended bytes, in order; nil once spilled
	n      int      // bytes appended so far
	path   string   // spill file holding all n bytes; "" while in memory
	sealed bool     // no more appends: set by Spill and Close
	closed bool
	// notify is armed (made) by a reader that finds nothing to read, and
	// closed and cleared by the next append or Close. A write nobody waits
	// on allocates nothing unless it starts a block.
	notify chan struct{}
}

// NewStreamLog returns an empty open log.
func NewStreamLog() *StreamLog {
	return &StreamLog{}
}

// Write appends p: it fills the tail block's spare capacity and starts a
// new block whenever that is full. It never fails: after Close (or Spill)
// the bytes are discarded but the write still reports success, so a late
// writer does not error out.
func (l *StreamLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return len(p), nil
	}
	for rest := p; len(rest) > 0; {
		if l.n%blockSize == 0 { // no block yet, or the tail is full
			l.blocks = append(l.blocks, make([]byte, 0, blockSize))
		}
		t := &l.blocks[len(l.blocks)-1]
		m := copy((*t)[len(*t):blockSize], rest)
		*t, rest = (*t)[:len(*t)+m], rest[m:]
		l.n += m
	}
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

// Spill seals the log against further appends, writes its blocks in order
// to path and drops them; reads from any offset are then served from the
// file and Len is unchanged. The file is written like every other file the
// runner keeps (writeAtomic), so a crash leaves it whole or absent, never
// a prefix. Readers are not woken: the stream is only complete once Close
// is called. An empty log writes no file. On a write error the bytes stay
// in memory, still readable, and the error is returned.
func (l *StreamLog) Spill(path string) error {
	l.mu.Lock()
	l.sealed = true
	blocks := l.blocks
	l.mu.Unlock()
	if len(blocks) == 0 {
		return nil
	}
	// Sealed, so the blocks are final and no one appends to them while
	// they are written.
	if err := writeAtomic(path, blocks...); err != nil {
		return fmt.Errorf("runner: spill event log: %w", err)
	}
	l.mu.Lock()
	l.path, l.blocks = path, nil
	l.mu.Unlock()
	return nil
}

// Len returns the number of bytes appended so far.
func (l *StreamLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Wait blocks until there are bytes beyond off, the stream closes, or ctx
// is done. It then returns a read-only view from off to the end of the
// block holding off (from a spilled log, a copy of everything from off),
// and closed, which is true only when the view ends the complete stream. A
// reader that wants everything available calls Wait again from the new
// offset while it is below Len; that call does not block.
func (l *StreamLog) Wait(ctx context.Context, off int) (data []byte, closed bool, err error) {
	l.mu.Lock()
	for off >= l.n && !l.closed {
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
		l.mu.Lock()
	}
	closed, path, n := l.closed, l.path, l.n
	if off >= n {
		l.mu.Unlock()
		return nil, closed, nil
	}
	// The spill file is read outside the lock. A view is clipped to its
	// length, so a caller's append cannot reach the tail block's spare
	// capacity.
	if path != "" {
		l.mu.Unlock()
		data, err := readSpill(path, off, n)
		return data, closed, err
	}
	b := l.blocks[off/blockSize]
	data = b[off%blockSize : len(b) : len(b)]
	l.mu.Unlock()
	return data, closed && off+len(data) == n, nil
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
