package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A write nobody waits on only appends: no wake-up channel is made.
func TestStreamLogWriteAllocs(t *testing.T) {
	l := NewStreamLog()
	l.buf = make([]byte, 0, 1<<20) // pre-grown: appends never reallocate
	line := []byte(`{"c":1,"k":"Load","n":0,"p":1}` + "\n")
	if n := testing.AllocsPerRun(1000, func() { l.Write(line) }); n != 0 {
		t.Fatalf("StreamLog.Write made %v allocations per write with no reader waiting, want 0", n)
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
