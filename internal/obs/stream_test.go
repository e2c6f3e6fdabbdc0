package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
)

func streamFixture() ([]Event, []Sample) {
	events := []Event{
		{Kind: KLoad, Cycle: 10, Node: 1, TID: 3, Addr: 0x40, Words: 0xf},
		{Kind: KCommit, Cycle: 20, Node: 1, TID: 3},
		{Kind: KViolation, Cycle: 25, Node: 2, TID: 4, Addr: 0x80},
	}
	samples := []Sample{{Cycle: 16}}
	return events, samples
}

// marshalLine is the reference encoding of one stream line.
func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// headerLine is the reference encoding of the schema header.
func headerLine(t testing.TB) []byte {
	return marshalLine(t, streamHeader{StreamSchema, StreamVersion})
}

// blockWriter records every Write the stream makes and checks that each
// holds whole lines: it is non-empty and ends on a newline (so, the writes
// being consecutive, each also starts on a line).
type blockWriter struct {
	t      testing.TB
	writes [][]byte
	all    bytes.Buffer
}

func (w *blockWriter) Write(p []byte) (int, error) {
	if len(p) == 0 || p[len(p)-1] != '\n' {
		w.t.Fatalf("write %d of %d bytes does not end on a line boundary", len(w.writes), len(p))
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.all.Write(p)
	return len(p), nil
}

// The stream's bytes are json.Marshal's: the header, then one line per
// event or sample.
func TestJSONLStreamMatchesWriterBytes(t *testing.T) {
	events, samples := streamFixture()
	want := headerLine(t)
	var live bytes.Buffer
	s := NewJSONLStream(&live)
	for _, e := range events {
		s.Event(e)
		want = append(want, marshalLine(t, e)...)
	}
	for _, sm := range samples {
		s.Sample(sm)
		want = append(want, marshalLine(t, sampleLine{"sample", sm})...)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), want) {
		t.Fatalf("stream differs from json.Marshal lines:\nstream: %s\nwant:   %s", live.Bytes(), want)
	}
	if !bytes.HasPrefix(live.Bytes(), []byte(`{"schema":"scalabletcc/events","version":1}`)) {
		t.Fatalf("missing schema header: %s", live.Bytes())
	}
}

// The block contract: every Write holds whole lines; nothing reaches the
// writer until 64 KiB of lines are buffered or Flush is called; and a run
// makes at most ceil(bytes/64 KiB) + (number of flushes) writes.
func TestJSONLStreamWritesWholeLineBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := &blockWriter{t: t}
	s := NewJSONLStream(w)
	want := headerLine(t)
	flushes := 0
	for i := 0; i < 5000; i++ {
		e := Event{Kind: Kind(rng.Intn(NumKinds)), Cycle: uint64(i), Node: rng.Intn(64), Peer: -1,
			TID: rng.Uint64() >> rng.Intn(64), Addr: uint64(rng.Intn(1 << 20))}
		for n := rng.Intn(9); n > 0; n-- {
			e.Data = append(e.Data, rng.Uint64())
		}
		writes := len(w.writes)
		s.Event(e)
		want = append(want, marshalLine(t, e)...)
		if len(w.writes) > writes {
			if got := len(w.writes[len(w.writes)-1]); len(w.writes) != writes+1 || got < blockSize {
				t.Fatalf("event %d: %d writes, the last of %d bytes; want one write of at least %d",
					i, len(w.writes)-writes, got, blockSize)
			}
		}
		if pending := len(want) - w.all.Len(); pending >= blockSize {
			t.Fatalf("event %d: %d bytes held back, want fewer than %d", i, pending, blockSize)
		}
		if i%1700 == 1699 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			flushes++
			if w.all.Len() != len(want) {
				t.Fatalf("Flush left %d bytes unwritten", len(want)-w.all.Len())
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flushes++
	if !bytes.Equal(w.all.Bytes(), want) {
		t.Fatal("blocks differ from the json.Marshal lines")
	}
	if limit := (len(want)+blockSize-1)/blockSize + flushes; len(w.writes) > limit {
		t.Fatalf("%d writes for %d bytes and %d flushes, want at most %d", len(w.writes), len(want), flushes, limit)
	}
	if len(w.writes) < 4 {
		t.Fatalf("%d writes for %d bytes: the run never filled a block", len(w.writes), len(want))
	}
	if n := len(w.writes); s.Flush() != nil || len(w.writes) != n {
		t.Fatal("a Flush with nothing buffered wrote")
	}
}

type failWriter struct{ after, writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.after <= 0 {
		return 0, errors.New("sink failed")
	}
	f.after--
	return len(p), nil
}

// A write error surfaces at Flush, stays sticky, and stops all later
// writes, whether the failed write was a Flush or a full block written
// from Event.
func TestJSONLStreamStickyError(t *testing.T) {
	events, _ := streamFixture()
	f := &failWriter{after: 1}
	s := NewJSONLStream(f)
	s.Event(events[0])
	if err := s.Flush(); err != nil { // header and first event: succeeds
		t.Fatal(err)
	}
	s.Event(events[1])
	if s.Flush() == nil {
		t.Fatal("write failure must surface at Flush")
	}
	s.Event(events[2]) // must not panic or clear the error
	if s.Flush() == nil {
		t.Fatal("error must be sticky")
	}
	if f.writes != 2 {
		t.Fatalf("%d writes reached the writer, want 2 (none after the failure)", f.writes)
	}

	f = &failWriter{}
	s = NewJSONLStream(f)
	for i := 0; i < 10_000; i++ {
		s.Event(Event{Cycle: uint64(i)})
	}
	if s.Flush() == nil {
		t.Fatal("Flush swallowed a full block's write error")
	}
	if f.writes != 1 {
		t.Fatalf("%d writes reached the writer, want 1 (none after the failure)", f.writes)
	}
}

// FuzzResumeStream holds ResumeJSONLStream to the checkpoint contract: the
// bytes a stream has written up to a cut (flushed at the cut, as a
// checkpoint save does), followed by a resumed stream fed the rest of the
// events, equal the uninterrupted stream. Events are decoded from raw
// bytes, eight per event; flushMask flushes after event i when bit i%64 is
// set. Every write must hold whole lines.
func FuzzResumeStream(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint64(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 4), uint16(2), uint64(0b101))
	f.Add(bytes.Repeat([]byte{7, 0, 9, 0xff, 0x80, 3, 200, 1}, 40), uint16(17), uint64(1<<20|1<<33))
	f.Add(bytes.Repeat([]byte{22, 1, 2, 3, 4, 5, 6, 255}, 64), uint16(30), ^uint64(0))
	f.Add(bytes.Repeat([]byte{0, 9, 8, 7, 6, 5, 4, 255}, 64), uint16(64), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, flushMask uint64) {
		var events []Event
		for ; len(data) >= 8; data = data[8:] {
			e := Event{
				Kind:  Kind(int(data[0]) % (NumKinds + 1)), // one past the end has no wire name
				Cycle: uint64(binary.LittleEndian.Uint16(data[1:])),
				Node:  int(data[3]),
				Peer:  int(int8(data[4])),
				TID:   uint64(data[5]),
			}
			// Long payloads make a few events fill a 64 KiB block.
			for n := 0; n < int(data[6]); n++ {
				e.Data = append(e.Data, uint64(n)*0x9e3779b97f4a7c15^uint64(data[7]))
			}
			events = append(events, e)
		}
		c := int(cut) % (len(events) + 1)
		feed := func(s *JSONLStream, from, to int, atCut func()) {
			for i := from; i < to; i++ {
				if i == c && atCut != nil {
					atCut()
				}
				s.Event(events[i])
				if flushMask>>(i%64)&1 != 0 {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if to == c && atCut != nil {
				atCut()
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}

		whole := &blockWriter{t: t}
		s := NewJSONLStream(whole)
		prefix := -1
		feed(s, 0, len(events), func() {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			prefix = whole.all.Len()
		})
		var want []byte
		for i, e := range events {
			if i == 0 {
				want = headerLine(t)
			}
			want = append(want, marshalLine(t, e)...)
		}
		if !bytes.Equal(whole.all.Bytes(), want) {
			t.Fatal("uninterrupted stream differs from the json.Marshal lines")
		}

		// As a checkpointed run does, a cut before the first line restarts
		// the stream rather than resuming it.
		resumed := &blockWriter{t: t}
		resumed.all.Write(whole.all.Bytes()[:prefix])
		rest := ResumeJSONLStream(resumed)
		if prefix == 0 {
			rest = NewJSONLStream(resumed)
		}
		feed(rest, c, len(events), nil)
		if !bytes.Equal(resumed.all.Bytes(), want) {
			t.Fatalf("cut at event %d of %d (offset %d): resumed stream differs from the uninterrupted one",
				c, len(events), prefix)
		}
	})
}
