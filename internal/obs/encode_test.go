package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"
)

// FuzzEventLine holds appendEvent to its contract: byte-identity with
// json.Marshal on any event. Data is decoded from raw bytes eight at a time;
// no bytes give a nil slice and fewer than eight an empty non-nil one, so
// both omitempty cases are reachable.
func FuzzEventLine(f *testing.F) {
	words := func(ws ...uint64) []byte {
		b := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	for k := 0; k <= NumKinds; k++ { // every kind, then one with no wire name
		f.Add(uint64(k), uint8(k), k, k-1, uint64(k), uint64(0), uint64(0x40*k), uint64(0xf),
			uint64(0), uint64(0), int64(k), words(uint64(k)), "")
	}
	f.Add(uint64(0), uint8(200), 0, 0, uint64(0), uint64(0), uint64(0), uint64(0),
		uint64(0), uint64(0), int64(0), []byte(nil), "")
	f.Add(^uint64(0), uint8(KLoad), -7, -1, ^uint64(0), uint64(1), uint64(1), ^uint64(0),
		uint64(3), uint64(5), int64(-1<<63), words(), "{0,1,2}")
	f.Add(uint64(9), uint8(KFill), 1, 2, uint64(3), uint64(4), uint64(0x80), uint64(0x3),
		uint64(0), uint64(0), int64(-42), []byte{1, 2, 3}, "")
	f.Add(uint64(9), uint8(KWriteBack), 1, -2, uint64(3), uint64(4), uint64(0x80), uint64(0x3),
		uint64(0), uint64(0), int64(1), words(0, 1, ^uint64(0), 1<<40), "")
	// Each escapable byte alone as well as mixed, so a missed case cannot
	// hide behind another byte that triggers the fallback.
	for _, set := range []string{
		"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\x01b", "a\x7fb", "a\u2028b", "a\xffb",
		`<script>&"quoted"\back\slash`,
		"tab\there\nnew\x00nul\x1f\x7f",
		"bad utf8 \xff\xfe \xc3",
		"line sep \u2028 para sep \u2029",
		"ünïcödé",
		"{3,4}",
	} {
		f.Add(uint64(1), uint8(KCommit), 0, -1, uint64(2), uint64(0), uint64(0), uint64(0),
			uint64(0), uint64(0), int64(0), []byte(nil), set)
	}
	f.Fuzz(func(t *testing.T, cycle uint64, kind uint8, node, peer int, tid, tid2, addr, ws,
		sr, sm uint64, arg int64, data []byte, set string) {
		e := Event{Cycle: cycle, Kind: Kind(kind), Node: node, Peer: peer, TID: tid, TID2: tid2,
			Addr: addr, Words: ws, SR: sr, SM: sm, Arg: arg, Set: set}
		if len(data) > 0 {
			e.Data = make([]uint64, 0, len(data)/8)
			for ; len(data) >= 8; data = data[8:] {
				e.Data = append(e.Data, binary.LittleEndian.Uint64(data))
			}
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendEvent(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("appendEvent(%+v)\n got  %s\n want %s", e, got, want)
		}
	})
}

// Once warm, an event line costs an append into the stream's own buffer:
// no reflection pass and no allocation.
func TestJSONLStreamEventAllocs(t *testing.T) {
	s := NewJSONLStream(io.Discard)
	e := Event{Cycle: 123456, Kind: KLoad, Node: 3, Peer: 1, TID: 7, Addr: 0x1000, Words: 0xff,
		Arg: 2, Data: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, Set: "{0,1,5}"}
	s.Event(e)
	if n := testing.AllocsPerRun(1000, func() { s.Event(e) }); n != 0 {
		t.Fatalf("JSONLStream.Event made %v allocations per event, want 0", n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}
