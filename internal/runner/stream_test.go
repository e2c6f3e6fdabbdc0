package runner

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testStream returns at least n bytes of JSONL lines of varied length.
func testStream(n int) []byte {
	var b []byte
	for i := 0; len(b) < n; i++ {
		b = fmt.Appendf(b, "{\"c\":%d,\"k\":\"Load\",\"pad\":%q}\n", i, strings.Repeat("x", i%97))
	}
	return b
}

// writeIn appends data to l in writes of the given sizes, in turn.
func writeIn(l *StreamLog, data []byte, sizes ...int) {
	for i := 0; len(data) > 0; i++ {
		k := min(sizes[i%len(sizes)], len(data))
		l.Write(data[:k])
		data = data[k:]
	}
}

// writeLineBlocks appends data to l as obs.JSONLStream hands a stream over:
// whole lines, a write once they reach blockSize.
func writeLineBlocks(l *StreamLog, data []byte) {
	for len(data) > 0 {
		k := len(data)
		if i := bytes.IndexByte(data[min(blockSize, k):], '\n'); i >= 0 {
			k = min(blockSize, k) + i + 1
		}
		l.Write(data[:k])
		data = data[k:]
	}
}

// checkBlocks checks the block layout: every block has blockSize capacity
// and every block but the tail is full, so block i starts at i*blockSize
// and the blocks hold less than one block of spare capacity.
func checkBlocks(t *testing.T, l *StreamLog) {
	t.Helper()
	held := 0
	for i, b := range l.blocks {
		if cap(b) != blockSize || (i < len(l.blocks)-1 && len(b) != blockSize) {
			t.Fatalf("block %d of %d: %d bytes, cap %d", i, len(l.blocks), len(b), cap(b))
		}
		held += len(b)
	}
	if held != l.Len() || len(l.blocks) != (held+blockSize-1)/blockSize {
		t.Fatalf("%d blocks hold %d bytes, Len %d", len(l.blocks), held, l.Len())
	}
}

// tail reads l from off to its current end the way serveEvents gathers
// one wake-up: Wait again while the offset is below Len.
func tail(t *testing.T, l *StreamLog, off int) (got []byte, closed bool) {
	t.Helper()
	for {
		data, c, err := l.Wait(context.Background(), off)
		if err != nil {
			t.Fatal(err)
		}
		got, off, closed = append(got, data...), off+len(data), c
		if closed || off >= l.Len() {
			return got, closed
		}
	}
}

// A write that fits the tail block only copies: no block and no wake-up
// channel is made.
func TestStreamLogWriteAllocs(t *testing.T) {
	l := NewStreamLog()
	line := []byte(`{"c":1,"k":"Load","n":0,"p":1}` + "\n")
	l.Write(line) // starts the tail block
	if n := testing.AllocsPerRun(1000, func() { l.Write(line) }); n != 0 {
		t.Fatalf("StreamLog.Write made %v allocations per write with no reader waiting, want 0", n)
	}
	if len(l.blocks) != 1 {
		t.Fatalf("%d bytes of writes made %d blocks, want 1", l.Len(), len(l.blocks))
	}
}

// Reads from every offset near a block boundary return the live bytes:
// ReadFrom everything from the offset, Wait a view that ends at the end of
// the offset's block, and views already handed out never change.
func TestStreamLogReadsAcrossBlocks(t *testing.T) {
	live := testStream(5*blockSize + 1234)
	l := NewStreamLog()
	half := len(live) / 2
	writeIn(l, live[:half], 1000, 70_000, 3, 20_000)
	early, _, _ := l.Wait(context.Background(), half-10)
	earlyCopy := bytes.Clone(early)
	_ = append(early, "overwrite?"...) // a view's spare capacity is not the log's
	writeIn(l, live[half:], 1000, 70_000, 3, 20_000)
	if !bytes.Equal(early, earlyCopy) {
		t.Fatal("a view handed out before later writes changed")
	}
	checkBlocks(t, l)
	if len(l.blocks) < 5 {
		t.Fatalf("%d bytes in %d blocks, want at least 5", len(live), len(l.blocks))
	}
	for k := 1; k < len(l.blocks); k++ {
		start := k * blockSize
		for off := start - 3; off <= start+3; off++ {
			data, closed, err := l.ReadFrom(off)
			if err != nil || closed || !bytes.Equal(data, live[off:]) {
				t.Fatalf("ReadFrom(%d): %d bytes closed=%v err=%v, want %d bytes", off, len(data), closed, err, len(live)-off)
			}
			view, _, _ := l.Wait(context.Background(), off)
			end := start
			if off >= start {
				end = start + len(l.blocks[k])
			}
			if !bytes.Equal(view, live[off:end]) {
				t.Fatalf("Wait(%d) = %d bytes, want the %d to the end of its block", off, len(view), end-off)
			}
			if got, _ := tail(t, l, off); !bytes.Equal(got, live[off:]) {
				t.Fatalf("tail from %d: %d bytes, want %d", off, len(got), len(live)-off)
			}
		}
	}
	for _, off := range []int{len(live), len(live) + 5} {
		if data, _, _ := l.ReadFrom(off); data != nil {
			t.Fatalf("ReadFrom(%d) past the end = %d bytes", off, len(data))
		}
	}
}

// A single write larger than a block (a resumed job replays its stream's
// prefix in one) fills the tail and then as many new blocks as it needs.
func TestStreamLogWriteLargerThanBlock(t *testing.T) {
	live := testStream(4 * blockSize)
	l := NewStreamLog()
	l.Write(live[:100])
	big := 100 + 3*blockSize + 17
	l.Write(live[100:big])
	checkBlocks(t, l)
	if len(l.blocks) != 4 || len(l.blocks[3]) != big-3*blockSize {
		t.Fatalf("%d blocks, want 4 with %d bytes in the tail", len(l.blocks), big-3*blockSize)
	}
	l.Write(live[big:])
	checkBlocks(t, l)
	if data, _, _ := l.ReadFrom(0); !bytes.Equal(data, live) {
		t.Fatalf("ReadFrom(0) = %d bytes, want %d", len(data), len(live))
	}
}

// Wait on a closed multi-block log hands out the blocks one view at a
// time and reports closed only with the last one.
func TestStreamLogWaitClosedOnlyAtEnd(t *testing.T) {
	live := testStream(3*blockSize + 500)
	l := NewStreamLog()
	writeIn(l, live, 10_000)
	l.Close()
	var got []byte
	views := 0
	for off := 0; ; views++ {
		data, closed, err := l.Wait(context.Background(), off)
		if err != nil || len(data) == 0 {
			t.Fatalf("Wait(%d) = %d bytes, err %v", off, len(data), err)
		}
		got, off = append(got, data...), off+len(data)
		if closed {
			if off != len(live) {
				t.Fatalf("closed reported at offset %d of %d", off, len(live))
			}
			break
		}
	}
	if views < 3 || !bytes.Equal(got, live) {
		t.Fatalf("%d views of %d bytes, want the %d live bytes in 4", views+1, len(got), len(live))
	}
	if data, closed, err := l.Wait(context.Background(), len(live)); data != nil || !closed || err != nil {
		t.Fatalf("Wait at the end of a closed log = %d bytes closed=%v err=%v", len(data), closed, err)
	}
}

// A multi-block spill writes exactly the live bytes, and reads from any
// offset, block boundaries included, are served from the file unchanged.
func TestStreamLogSpillBlocks(t *testing.T) {
	live := testStream(4*blockSize + 99)
	l := NewStreamLog()
	writeIn(l, live, 65_000, 80_000)
	checkBlocks(t, l)
	var offsets []int
	for k := range l.blocks {
		offsets = append(offsets, k*blockSize-1, k*blockSize, k*blockSize+1)
	}
	path := filepath.Join(t.TempDir(), "j.events.jsonl")
	if err := l.Spill(path); err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, live) {
		t.Fatalf("spill file of %d bytes differs from the %d live bytes (%v)", len(onDisk), len(live), err)
	}
	if l.blocks != nil || l.Len() != len(live) {
		t.Fatalf("after spill: %d blocks, Len %d", len(l.blocks), l.Len())
	}
	for _, off := range offsets[1:] {
		data, closed, err := l.ReadFrom(off)
		if err != nil || closed || !bytes.Equal(data, live[off:]) {
			t.Fatalf("ReadFrom(%d) from the spill: %d bytes closed=%v err=%v", off, len(data), closed, err)
		}
	}
	l.Close()
	if data, closed, err := l.Wait(context.Background(), 7); err != nil || !closed || !bytes.Equal(data, live[7:]) {
		t.Fatalf("Wait(7) on the closed spill: %d bytes closed=%v err=%v", len(data), closed, err)
	}
}

// A reader that is mid-stream when the log spills sees the same bytes it
// would have seen from memory, and ReadFrom and Len agree before and after
// the spill.
func TestStreamLogSpillMidStream(t *testing.T) {
	l := NewStreamLog()
	var live bytes.Buffer
	for i := 0; i < 100; i++ {
		line := fmt.Sprintf("{\"c\":%d}\n", i)
		live.WriteString(line)
		l.Write([]byte(line))
	}
	ctx := context.Background()
	var seen []byte
	off := 0
	read := func() bool {
		data, closed, err := l.Wait(ctx, off)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, data...)
		off += len(data)
		return closed
	}
	// The reader takes a first chunk from memory and holds on to it.
	first, _, err := l.Wait(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	firstCopy := bytes.Clone(first)
	seen, off = append(seen, first[:len(first)/2]...), len(first)/2

	offsets := []int{0, 1, 37, live.Len() / 2, live.Len() - 1, live.Len(), live.Len() + 5}
	before := make([][]byte, len(offsets))
	for i, o := range offsets {
		data, _, err := l.ReadFrom(o)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = bytes.Clone(data)
	}
	lenBefore := l.Len()

	path := filepath.Join(t.TempDir(), "j.events.jsonl")
	if err := l.Spill(path); err != nil {
		t.Fatal(err)
	}
	l.Write([]byte("after spill\n")) // sealed: dropped
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, live.Bytes()) {
		t.Fatalf("spill file differs from the live bytes (%v)", err)
	}
	if !bytes.Equal(first, firstCopy) {
		t.Fatal("a view handed out before the spill changed")
	}
	if l.Len() != lenBefore {
		t.Fatalf("Len %d after spill, %d before", l.Len(), lenBefore)
	}
	for i, o := range offsets {
		data, closed, err := l.ReadFrom(o)
		if err != nil {
			t.Fatal(err)
		}
		if closed || !bytes.Equal(data, before[i]) {
			t.Fatalf("ReadFrom(%d) after spill = %d bytes closed=%v, before %d bytes", o, len(data), closed, len(before[i]))
		}
	}

	if read() {
		t.Fatal("a spilled log is not complete until Close")
	}
	done := make(chan bool)
	go func() {
		_, closed, err := l.Wait(ctx, off)
		done <- closed && err == nil
	}()
	l.Close()
	if !<-done {
		t.Fatal("Close must wake a reader waiting at the end of a spilled log")
	}
	if !read() {
		t.Fatal("closed log must report closed")
	}
	if !bytes.Equal(seen, live.Bytes()) {
		t.Fatalf("reader saw %d bytes, live stream is %d", len(seen), live.Len())
	}
}

// appendFrames reassembles lines however the stream is cut into views.
func TestAppendFramesAcrossViews(t *testing.T) {
	stream := []byte("{\"a\":1}\n{\"bb\":22}\n\n{\"c\":3}\ntorn")
	want := []byte("data: {\"a\":1}\n\ndata: {\"bb\":22}\n\ndata: \n\ndata: {\"c\":3}\n\n")
	for i := 0; i <= len(stream); i++ {
		for j := i; j <= len(stream); j++ {
			var frames, partial []byte
			for _, view := range [][]byte{stream[:i], stream[i:j], stream[j:]} {
				frames, partial = appendFrames(frames, partial, view)
			}
			if !bytes.Equal(frames, want) || string(partial) != "torn" {
				t.Fatalf("cut at %d and %d: frames %q, partial %q", i, j, frames, partial)
			}
		}
	}
}

// flushCounter is a ResponseWriter that counts the handler's writes and
// flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (c *flushCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(p)
}

func (c *flushCounter) Flush() {
	c.flushes++
	c.ResponseRecorder.Flush()
}

// A finished multi-block stream is one wake-up: serveEvents gathers every
// block into one Write and one Flush, with the done frame at its end, from
// memory and from a spill file alike.
func TestServeEventsGathersBlocks(t *testing.T) {
	live := testStream(3*blockSize + 321)
	for _, stateDir := range []string{"", t.TempDir()} {
		exec := func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
			writeIn(jc.Log, live, 50_000, 70_000)
			return &JobResult{Kind: spec.Kind}, nil
		}
		q := NewQueue(Config{Capacity: 1, Workers: 1, StateDir: stateDir}, exec)
		st, err := q.Submit(runSpec("blocks"))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, st.ID, StateDone)
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)
		r.SetPathValue("id", st.ID)
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		serveEvents(q, w, r)
		q.Shutdown()

		var want []byte
		want, _ = appendFrames(nil, nil, live)
		want = append(want, "event: done\ndata: {\"k\":\"job-done\",\"state\":\"done\"}\n\n"...)
		if w.writes != 1 || w.flushes != 2 || !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("state dir %q: %d writes and %d flushes of %d bytes, want 1 and 2 (headers, frames) of %d",
				stateDir, w.writes, w.flushes, w.Body.Len(), len(want))
		}
	}
}

// BenchmarkStreamLog writes a 1.5 MB stream in whole-line writes of 64 KiB
// or more, as obs.JSONLStream hands a job's stream over, while a reader
// tails it with Wait. Every byte is copied into a block once, so B/op is
// the stream's bytes plus less than one block of spare capacity, the wake-up
// channels and the reader.
func BenchmarkStreamLog(b *testing.B) {
	stream := testStream(1_500_000)
	ctx := context.Background()
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewStreamLog()
		read := make(chan int)
		go func() {
			off := 0
			for {
				data, closed, err := l.Wait(ctx, off)
				if err != nil {
					break
				}
				off += len(data)
				if closed {
					break
				}
			}
			read <- off
		}()
		writeLineBlocks(l, stream)
		l.Close()
		if n := <-read; n != len(stream) {
			b.Fatalf("reader saw %d of %d bytes", n, len(stream))
		}
	}
}
