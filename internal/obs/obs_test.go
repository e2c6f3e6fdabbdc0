package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumKinds; i++ {
		k := Kind(i)
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no wire name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate wire name %q", name)
		}
		seen[name] = true
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := KindByName("NoSuchKind"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

func TestKindJSON(t *testing.T) {
	b, err := json.Marshal(KWriteBack)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"WriteBack"` {
		t.Fatalf("marshal = %s", b)
	}
	var k Kind
	if err := json.Unmarshal(b, &k); err != nil || k != KWriteBack {
		t.Fatalf("unmarshal = %v, %v", k, err)
	}
	if err := json.Unmarshal([]byte(`"Bogus"`), &k); err == nil {
		t.Fatal("unmarshal accepted an unknown kind")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	e := Event{Cycle: 42, Kind: KMark, Node: 3, Peer: 1, TID: 7, Addr: 0x1000, Words: 0xff}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycle != 42 || back.Kind != KMark || back.Node != 3 || back.Peer != 1 ||
		back.TID != 7 || back.Addr != 0x1000 || back.Words != 0xff {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestRingBufferWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Event(Event{Cycle: uint64(i)})
	}
	if r.Seen() != 10 {
		t.Fatalf("Seen = %d", r.Seen())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d", r.Dropped())
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events", len(got))
	}
	for i, e := range got {
		if want := uint64(6 + i); e.Cycle != want {
			t.Fatalf("event %d has cycle %d, want %d (oldest first)", i, e.Cycle, want)
		}
	}
}

func TestRingBufferPartial(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Event(Event{Cycle: uint64(i)})
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d before wraparound", r.Dropped())
	}
	got := r.Events()
	if len(got) != 3 || got[0].Cycle != 0 || got[2].Cycle != 2 {
		t.Fatalf("partial buffer = %+v", got)
	}
}

func TestRingBufferRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Event(Event{Kind: KCommit})
	c.Event(Event{Kind: KCommit})
	c.Event(Event{Kind: KViolation})
	if c.Count(KCommit) != 2 || c.Count(KViolation) != 1 || c.Count(KAbort) != 0 {
		t.Fatalf("counts = %v", c.Counts())
	}
	if c.Total() != 3 {
		t.Fatalf("Total = %d", c.Total())
	}
	byName := c.ByName()
	if len(byName) != 2 || byName["Commit"] != 2 || byName["Violation"] != 1 {
		t.Fatalf("ByName = %v", byName)
	}
}

func TestJSONLStreamLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONLStream(&buf)
	j.Event(Event{Cycle: 1, Kind: KTIDGrant, Node: 0, Peer: 2, TID: 1})
	j.Sample(Sample{Cycle: 100, NSTIDMin: 1, NSTIDMax: 3, TIDNext: 4, LagMax: 3})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), lines)
	}
	var header struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Schema != StreamSchema || header.Version != StreamVersion {
		t.Fatalf("header = %+v", header)
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KTIDGrant || e.Cycle != 1 || e.Peer != 2 {
		t.Fatalf("event line = %+v", e)
	}
	var s struct {
		K string `json:"k"`
		Sample
	}
	if err := json.Unmarshal([]byte(lines[2]), &s); err != nil {
		t.Fatal(err)
	}
	if s.K != "sample" || s.LagMax != 3 || s.TIDNext != 4 {
		t.Fatalf("sample line = %+v", s)
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no live observers must be nil")
	}
	c := NewCounter()
	if Tee(nil, c) != Observer(c) {
		t.Fatal("Tee of one observer must return it directly")
	}
	r := NewRing(8)
	var buf bytes.Buffer
	j := NewJSONLStream(&buf)
	fan := Tee(c, r, j)
	fan.Event(Event{Kind: KCommit})
	fan.Event(Event{Kind: KViolation})
	if c.Total() != 2 || r.Seen() != 2 {
		t.Fatalf("fan-out missed a sink: counter=%d ring=%d", c.Total(), r.Seen())
	}
	// Samples reach only the sinks that take them.
	fan.(SampleObserver).Sample(Sample{Cycle: 5})
	j.Flush()
	if !strings.Contains(buf.String(), `"k":"sample"`) {
		t.Fatal("sample did not reach the JSONL sink through the tee")
	}
}

func TestLineFormats(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Cycle: 5, Kind: KTIDGrant, Node: 0, Peer: 2, TID: 7},
			"[5] vendor grants T7 to p2"},
		{Event{Cycle: 9, Kind: KProbeResp, Node: 1, Peer: 0, TID: 3, TID2: 3},
			"[9] dir1 answers p0's probe for T3: NSTID=3"},
		{Event{Cycle: 4, Kind: KSkip, Node: 2, Peer: -1, TID: 5, TID2: 4},
			"[4] dir2 skip T5 (NSTID 4)"},
		{Event{Cycle: 11, Kind: KMark, Node: 0, Peer: 1, TID: 2, Addr: 0x1000, Words: 0x3},
			"[11] dir0 mark line 0x1000 words=0x3 by T2 (p1)"},
		{Event{Cycle: 12, Kind: KCommitLine, Node: 0, Peer: 1, TID: 2, Addr: 0x1000, Words: 0x3, Set: "{0 1}", Arg: -1},
			"[12] dir0 commit T2 line 0x1000 words=0x3 sharers={0 1} oldOwner=-1"},
		{Event{Cycle: 13, Kind: KAbort, Node: 1, Peer: -1, TID: 6, TID2: 5},
			"[13] dir1 abort T6 (NSTID 5)"},
		{Event{Cycle: 14, Kind: KForward, Node: 2, Peer: 0, Addr: 0x2000, Arg: 1},
			"[14] dir2 load 0x2000 from p0: forward flush to owner 1"},
		{Event{Cycle: 15, Kind: KLoad, Node: 1, Peer: 2, Addr: 0x2000, Data: []uint64{0, 7}, Set: "{2}", Arg: -1},
			"[15] dir1 serve load 0x2000 -> p2 data=[0 7] sharers={2} owner=-1"},
		{Event{Cycle: 16, Kind: KFlushResp, Node: 0, Peer: 1, Addr: 0x3000, Data: []uint64{1, 2}, Arg: 1},
			"[16] dir0 flushResp 0x3000 from p1 data=[1 2] owner=1"},
		{Event{Cycle: 17, Kind: KWriteBack, Node: 0, Peer: 1, Addr: 0x3000, TID2: 4, Words: 0x1, Data: []uint64{9, 0}, Arg: 1},
			"[17] dir0 WB 0x3000 from p1 tag=4 words=0x1 data=[9 0] remove=true"},
		{Event{Cycle: 18, Kind: KRead, Node: 1, Peer: -1, Addr: 0x1004, Arg: 3},
			"[18] p1 read 0x1004 = v3"},
		{Event{Cycle: 19, Kind: KCommit, Node: 1, Peer: -1, TID: 2, Set: "[0 1]", Arg: 5},
			"[19] p1 COMMIT T2 writeDirs=[0 1] reads=5"},
		{Event{Cycle: 20, Kind: KInv, Node: 2, Peer: 0, Addr: 0x1000, Words: 0x3, TID: 2, SR: 0x1, SM: 0x0, TID2: 0},
			"[20] p2 inv 0x1000 words=0x3 committer=T2 SR=0x1 SM=0x0 tid=0"},
		{Event{Cycle: 21, Kind: KViolation, Node: 2, Peer: -1, TID: 0, Arg: 2},
			"[21] p2 VIOLATE phase=2 tid=0"},
	}
	for _, c := range cases {
		got, ok := Line(c.e)
		if !ok {
			t.Fatalf("Line rejected %v", c.e.Kind)
		}
		if got != c.want {
			t.Errorf("Line(%v):\n got  %q\n want %q", c.e.Kind, got, c.want)
		}
	}
	// Kinds with no text form must be rejected, so the tccwalk
	// walkthroughs stay byte-identical.
	for _, k := range []Kind{KFill, KProbe, KInvAck, KCommitDone, KFlush, KFlushInv, KOverflow, KBarrier} {
		if line, ok := Line(Event{Kind: k}); ok {
			t.Errorf("Line accepted textless kind %v: %q", k, line)
		}
	}
}

func TestFuncObserver(t *testing.T) {
	var n int
	o := FuncObserver(func(Event) { n++ })
	o.Event(Event{})
	o.Event(Event{})
	if n != 2 {
		t.Fatalf("FuncObserver fired %d times", n)
	}
}
