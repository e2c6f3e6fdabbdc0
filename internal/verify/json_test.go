package verify

import (
	"encoding/json"
	"reflect"
	"testing"

	"scalabletcc/internal/mem"
)

// parentLog is a commit log as checkpoints wrote it while record sides were
// maps: json.Marshal sorted the keys as strings, so "10" precedes "9", and an
// empty side is {}.
const parentLog = `[{"TID":9,"Proc":1,"Reads":{"10":3,"100":7,"9":0},"Writes":{"10":9,"9":9}},` +
	`{"TID":10,"Proc":0,"Reads":{},"Writes":{}}]`

func TestRecordJSONDecodesParentEra(t *testing.T) {
	var got []Record
	if err := json.Unmarshal([]byte(parentLog), &got); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{TID: 9, Proc: 1, Reads: Words{at(10, 3), at(100, 7), at(9, 0)}, Writes: Words{at(10, 9), at(9, 9)}},
		{TID: 10, Proc: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\n want %+v", got, want)
	}
	// Through the map form, json.Marshal writes the parent's bytes again.
	b, err := json.Marshal(toMapRecords(got))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != parentLog {
		t.Fatalf("map form re-marshals to\n %s\nwant\n %s", b, parentLog)
	}
}

// A side is written in slice order and read back in key order, so a record
// round-trips to a deep-equal one; an empty side is {} and decodes to nil.
func TestRecordJSONKeepsSliceOrder(t *testing.T) {
	r := Record{TID: 3, Proc: 2, Reads: Words{at(9, 1), at(10, 2)}}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"TID":3,"Proc":2,"Reads":{"9":1,"10":2},"Writes":{}}`
	if string(b) != want {
		t.Fatalf("marshal: %s, want %s", b, want)
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip: %+v, want %+v", back, r)
	}
}

// sameSet reports whether w holds each address once and exactly m's
// address→version pairs.
func sameSet(w Words, m map[mem.Addr]mem.Version) bool {
	if len(w) != len(m) || len(toMap(w)) != len(w) {
		return false
	}
	for _, s := range w {
		if v, ok := m[s.Addr]; !ok || v != s.Version {
			return false
		}
	}
	return true
}

// FuzzRecordJSON: the flat decoder accepts exactly what json.Unmarshal into
// the map-typed record accepts and yields the same address→version sets
// (a repeated key's last version wins); marshal then unmarshal is the
// identity on what it decodes.
func FuzzRecordJSON(f *testing.F) {
	for _, s := range []string{
		`{"TID":9,"Proc":1,"Reads":{"10":3,"100":7,"9":0},"Writes":{"10":9,"9":9}}`,
		`{"TID":10,"Proc":0,"Reads":{},"Writes":{}}`,
		`{"TID":1,"Reads":null,"Writes":{"8":1}}`,
		`{"Reads":{"5":1,"6":2,"5":3}}`,
		`{"Reads":{"1":2},"reads":{"3":4}}`,
		`{"Reads":{"1":2},"Reads":null}`,
		`{"Reads":{"5":1,"0010":2}}`,
		` { "Writes" : { "7" : 8 , "9":null } } `,
		`{"Reads":{"-1":1}}`,
		`{"Reads":{"1":-1}}`,
		`{"Reads":{"1":1.5}}`,
		`{"Reads":{"1":1e2}}`,
		`{"Reads":{"1":"2"}}`,
		`{"Reads":{"1":true}}`,
		`{"Reads":{"18446744073709551616":1}}`,
		`{"Reads":{"1":18446744073709551615}}`,
		`{"Reads":[]}`,
		`{"Reads":"x"}`,
		`{"Reads":{"1":2}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var old mapRecord
		oldErr := json.Unmarshal(data, &old)
		var r Record
		err := json.Unmarshal(data, &r)
		if (oldErr == nil) != (err == nil) {
			t.Fatalf("acceptance differs on %q: map form %v, flat form %v", data, oldErr, err)
		}
		if err != nil {
			return
		}
		if r.TID != old.TID || r.Proc != old.Proc || !sameSet(r.Reads, old.Reads) || !sameSet(r.Writes, old.Writes) {
			t.Fatalf("decoded %q as %+v, map form %+v", data, r, old)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Record
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decode %s: %v", b, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip of %+v gave %+v", r, back)
		}
	})
}
