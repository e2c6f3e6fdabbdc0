package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scalabletcc/internal/workload"
)

// codecRoundTrip holds the checkpoint codec to encoding/json on one
// checkpoint: AppendCheckpoint writes json.Marshal's bytes, and the decoder
// reads them on its canonical path to json.Unmarshal's value. It returns the
// decoded checkpoint.
func codecRoundTrip(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	want, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendCheckpoint(nil, ck); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("AppendCheckpoint differs from json.Marshal at byte %d:\n got  …%s\n want …%s",
			i, excerpt(got, i), excerpt(want, i))
	}
	var back Checkpoint
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	got, ok := decodeCanonical(want)
	if !ok {
		t.Fatal("json.Marshal output is not canonical to the decoder")
	}
	if !reflect.DeepEqual(got, &back) {
		t.Fatal("canonical decode differs from json.Unmarshal")
	}
	return got
}

func excerpt(b []byte, i int) []byte {
	lo, hi := max(i-40, 0), min(i+40, len(b))
	return b[lo:hi]
}

// resumeConfigs are the machine variants of the checkpoint-resume tests.
var resumeConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"sequential", nil},
	{"sharded", func(c *Config) { c.Shards = 4 }},
	{"dircache-bounded", func(c *Config) { c.DirCacheEntries = 64 }},
	{"write-through", func(c *Config) { c.WriteThroughCommit = true }},
	{"small-cache", func(c *Config) { c.L2Size, c.L1Size = 4<<10, 1<<10 }},
}

// TestCheckpointCodecMatchesMarshal runs the codec over every cut the
// resume tests take of their configurations, with the commit log collected
// and not.
func TestCheckpointCodecMatchesMarshal(t *testing.T) {
	prof := workload.Hotspot().Scale(0.25)
	const procs = 8
	for _, rc := range resumeConfigs {
		ref, _, _, _ := ckRun(t, prof, procs, rc.mutate, 0)
		for _, collect := range []bool{false, true} {
			cfg := DefaultConfig(procs)
			cfg.MaxCycles = 2_000_000_000
			if rc.mutate != nil {
				rc.mutate(&cfg)
			}
			sys, err := NewSystem(cfg, prof.Build(procs, cfg.Seed))
			if err != nil {
				t.Fatal(err)
			}
			sys.CollectCommitLog(collect)
			cuts := 0
			_, err = sys.RunCheckpointed(ref.Cycles/4, func(ck *Checkpoint) error {
				codecRoundTrip(t, ck)
				cuts++
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", rc.name, err)
			}
			if cuts < 3 {
				t.Fatalf("%s: only %d cuts", rc.name, cuts)
			}
		}
	}
}

// TestCheckpointCodecEveryField runs the codec over three checkpoints: one
// with every field set, including those no seed run reaches; the zero
// checkpoint, where every top-level omitempty field is absent and every
// slice null; and the zero shapes, where every slice holds one element and
// every pointer is allocated but every scalar is zero, so every nested
// omitempty field is absent. The full one writes every key of every type
// a checkpoint holds, the columns of the caches, L1 filters, directory
// entries and memory banks included.
func TestCheckpointCodecEveryField(t *testing.T) {
	full, shapes := new(Checkpoint), new(Checkpoint)
	fill(reflect.ValueOf(full).Elem(), 1, true)
	fill(reflect.ValueOf(shapes).Elem(), 1, false)
	full.Ports, shapes.Ports = nil, nil // only a retired-layout checkpoint has one
	for _, ck := range []*Checkpoint{full, new(Checkpoint), shapes} {
		codecRoundTrip(t, ck)
	}
	enc := AppendCheckpoint(nil, full)
	keys := make(map[string]bool)
	jsonKeys(reflect.TypeOf(full).Elem(), keys)
	delete(keys, "port_state")
	for _, key := range []string{"flagged", "flags", "invalid", "sharer_of", "pending_of", "mark_data_of", "id", "words"} {
		if !keys[key] {
			t.Fatalf("the checkpoint types have no key %q", key)
		}
	}
	for key := range keys {
		if !bytes.Contains(enc, []byte(`"`+key+`":`)) {
			t.Errorf("the full checkpoint does not write %q", key)
		}
	}
}

// jsonKeys adds the JSON keys of every struct field reachable from t.
func jsonKeys(t reflect.Type, keys map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		jsonKeys(t.Elem(), keys)
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			keys[name] = true
			jsonKeys(f.Type, keys)
		}
	}
}

// fill gives every slice reachable from v one element and allocates every
// pointer. With set it sets every scalar to a value that is not zero:
// numbers from a running counter, true and "s"; without, it leaves them
// zero.
func fill(v reflect.Value, next uint64, set bool) uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			next = fill(v.Field(i), next, set)
		}
	case reflect.Array:
		for i := range v.Len() {
			next = fill(v.Index(i), next, set)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		next = fill(v.Index(0), next, set)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		next = fill(v.Elem(), next, set)
	}
	if !set {
		return next
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int32:
		v.SetInt(int64(next))
		next++
	case reflect.Uint, reflect.Uint32, reflect.Uint64:
		v.SetUint(next)
		next++
	}
	return next
}

// TestAppendCheckpointAllocs: encoding a mid-run checkpoint into a buffer
// already grown to its size allocates nothing.
func TestAppendCheckpointAllocs(t *testing.T) {
	seeds, _, _ := fuzzSeedCheckpoints(t)
	ck, err := DecodeCheckpoint(seeds[1])
	if err != nil {
		t.Fatal(err)
	}
	buf := AppendCheckpoint(nil, ck)
	if n := testing.AllocsPerRun(20, func() { buf = AppendCheckpoint(buf[:0], ck) }); n != 0 {
		t.Fatalf("AppendCheckpoint allocates %v times per run", n)
	}
}

// fuzzSeedCheckpoints returns one encoded mid-run checkpoint per resume
// configuration, with the commit log collected and not, and the configs that
// restore them. The machines are small (two processors, 512-byte L1s) so that
// the fuzzer minimizes what it finds in seconds; the small-cache one has a
// 1 KiB L2, and its seed is cut once a line has overflowed.
func fuzzSeedCheckpoints(tb testing.TB) ([][]byte, []Config, workload.Program) {
	const procs = 2
	prog := workload.FalseSharing().Scale(0.05).Build(procs, 1)
	var (
		seeds [][]byte
		cfgs  []Config
	)
	for _, rc := range resumeConfigs {
		cfg := DefaultConfig(procs)
		cfg.MaxCycles = 2_000_000_000
		cfg.L1Size, cfg.L2Size = 512, 8<<10
		switch rc.name {
		case "sharded":
			cfg.Shards = 2
		case "small-cache":
			cfg.L2Size = 1 << 10
		default:
			if rc.mutate != nil {
				rc.mutate(&cfg)
			}
		}
		cfgs = append(cfgs, cfg)
		for _, collect := range []bool{false, true} {
			sys, err := NewSystem(cfg, prog)
			if err != nil {
				tb.Fatal(err)
			}
			sys.CollectCommitLog(collect)
			var seed []byte
			_, err = sys.RunCheckpointed(250, func(ck *Checkpoint) error {
				seed = AppendCheckpoint(seed[:0], ck)
				if collect && len(ck.CommitLog) == 0 ||
					rc.name == "small-cache" && !overflowed(ck) {
					return nil
				}
				return errSeedTaken
			})
			if !errors.Is(err, errSeedTaken) {
				tb.Fatalf("%s: no seed cut (%v)", rc.name, err)
			}
			seeds = append(seeds, seed)
		}
	}
	return seeds, cfgs, prog
}

var errSeedTaken = errors.New("seed taken")

// overflowed reports whether a processor's cache holds an overflow line.
func overflowed(ck *Checkpoint) bool {
	for _, p := range ck.Procs {
		if slices.Contains(p.Cache.Way, -1) {
			return true
		}
	}
	return false
}

// ckEdit replaces cut bytes at offset at of a seed checkpoint with ins. The
// fuzzer searches edits rather than whole checkpoints, so its inputs stay a
// few bytes long and what it finds minimizes quickly.
type ckEdit struct {
	at, cut int
	ins     string
}

func (e ckEdit) apply(base []byte) []byte {
	at := min(e.at, len(base))
	cut := min(e.cut, len(base)-at)
	out := append([]byte(nil), base[:at]...)
	return append(append(out, e.ins...), base[at+cut:]...)
}

// nonCanonical returns, for one canonical checkpoint, an edit for each way
// bytes can leave the canonical form; each result must decode as
// json.Unmarshal decodes it, value or error.
func nonCanonical(ck []byte) []ckEdit {
	subs := [][2]string{
		{`{"schema":`, `{ "schema" :`},                             // white space
		{`,"version":2,"procs":2`, `,"procs":2,"version":2`},       // reordered
		{`,"version":2`, `,"version":2,"zzz":[1,{"a":null}]`},      // unknown
		{`,"version":2`, `,"version":2,"version":2`},               // repeated
		{`,"running":`, `,"commits":0,"running":`},                 // zero omitempty
		{`,"running":`, `,"barrier_arrived":-0,"running":`},        // negative zero
		{`{"now":`, `{"now":0`},                                    // leading zero
		{`,"version":2`, `,"version":2e0`},                         // exponent
		{`,"version":2`, `,"version":2.0`},                         // fraction
		{`"scalabletcc/`, `"scalabletcc\/`},                        // escape
		{`"handler":"sys"`, `"handler":"\u0073ys"`},                // escape
		{`,"vendor_next":`, `,"vendor_next":99999999999999999999`}, // overflow
		{`"src":`, `"src":2147483648`},                             // int32 overflow
		{`,"msg_counts":`, `,"port_state":[{"commits":1}],"msg_counts":`},
		{`,"kernels":[`, `,"Kernels":[`},       // case-folded key
		{`,"net":{`, `,"net":null,"zz":{`},     // no network state
		{`"Reads":{`, `"Reads":{"8":1,"8":2,`}, // repeated record address
		{`"Reads":{`, `"Reads":null,"zz":{`},   // null record side
		{`"way":[`, `"way":[-0,`},              // negative zero in a column
	}
	var out []ckEdit
	for _, sub := range subs {
		if i := bytes.Index(ck, []byte(sub[0])); i >= 0 {
			out = append(out, ckEdit{at: i, cut: len(sub[0]), ins: sub[1]})
		}
	}
	return append(out, ckEdit{at: len(ck), ins: " "}, ckEdit{at: len(ck) - 1, cut: 1})
}

// FuzzCheckpoint holds the codec to encoding/json on edited checkpoints:
// DecodeCheckpoint equals json.Unmarshal in value and error-ness,
// AppendCheckpoint of what it decodes equals json.Marshal, and restoring it
// into any of the seed machines refuses or succeeds without a panic. The
// input is an edit of one seed checkpoint; a seed index past the last seed
// edits the empty input, so ins alone is the checkpoint.
func FuzzCheckpoint(f *testing.F) {
	seeds, cfgs, prog := fuzzSeedCheckpoints(f)
	for i := range seeds {
		f.Add(uint8(i), uint32(0), uint16(0), []byte{})
	}
	for _, e := range nonCanonical(seeds[1]) {
		f.Add(uint8(1), uint32(e.at), uint16(e.cut), []byte(e.ins))
	}
	f.Add(uint8(len(seeds)), uint32(0), uint16(0), []byte("null"))
	f.Fuzz(func(t *testing.T, seed uint8, at uint32, cut uint16, ins []byte) {
		var base []byte
		if int(seed) < len(seeds) {
			base = seeds[seed]
		}
		data := ckEdit{at: int(at), cut: int(cut), ins: string(ins)}.apply(base)
		want := new(Checkpoint)
		wantErr := json.Unmarshal(data, want)
		got, err := DecodeCheckpoint(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeCheckpoint error %v, json.Unmarshal error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("DecodeCheckpoint differs from json.Unmarshal")
		}
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(AppendCheckpoint(nil, got), enc) {
			t.Fatal("AppendCheckpoint differs from json.Marshal")
		}
		for _, cfg := range cfgs {
			RestoreSystem(cfg, prog, got)
		}
	})
}

// TestCheckpointNonCanonicalFallsBack: every non-canonical variant takes the
// json.Unmarshal path and agrees with it.
func TestCheckpointNonCanonicalFallsBack(t *testing.T) {
	seeds, _, _ := fuzzSeedCheckpoints(t)
	edits := nonCanonical(seeds[1])
	if len(edits) < 18 {
		t.Fatalf("seed checkpoint lacks the fields to edit: %d of the variants apply", len(edits))
	}
	for _, e := range edits {
		in := e.apply(seeds[1])
		if _, ok := decodeCanonical(in); ok {
			t.Errorf("decoder took %q at %d as canonical", e.ins, e.at)
		}
		want := new(Checkpoint)
		wantErr := json.Unmarshal(in, want)
		got, err := DecodeCheckpoint(in)
		if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Errorf("%q at %d: DecodeCheckpoint disagrees with json.Unmarshal (err %v, want %v)",
				e.ins, e.at, err, wantErr)
		}
	}
}

// BenchmarkCheckpointCodec compares the codec with encoding/json on the
// middle cut of a barnes 8p run at the jobs workload's scale, commit log on.
func BenchmarkCheckpointCodec(b *testing.B) {
	const procs = 8
	cfg := DefaultConfig(procs)
	prog := workload.Barnes().Scale(0.02).Build(procs, cfg.Seed)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		b.Fatal(err)
	}
	sys.CollectCommitLog(true)
	var cks []*Checkpoint
	if _, err := sys.RunCheckpointed(2000, func(ck *Checkpoint) error {
		cks = append(cks, ck)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	ck := cks[len(cks)/2]
	data, err := json.Marshal(ck)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var buf []byte
		for range b.N {
			buf = AppendCheckpoint(buf[:0], ck)
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for range b.N {
			if _, err := json.Marshal(ck); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for range b.N {
			if _, err := DecodeCheckpoint(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for range b.N {
			var back Checkpoint
			if err := json.Unmarshal(data, &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
