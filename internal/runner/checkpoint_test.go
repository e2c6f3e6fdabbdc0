package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// manifestBytes builds a manifest file image from raw lines (each gets a
// trailing newline unless tagged partial).
func manifestBytes(lines ...string) []byte {
	var b bytes.Buffer
	for _, ln := range lines {
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func validHeader(job, hash string) string {
	h, _ := json.Marshal(checkpointHeader{
		Schema: CheckpointSchema, Version: CheckpointVersion, Job: job, SpecHash: hash,
	})
	return string(h)
}

// edgeCase is one degenerate manifest image and what the loader makes of it
// under spec hash "h1".
type edgeCase struct {
	name    string
	data    []byte
	want    int  // entry count from LoadCheckpoint
	wantNil bool // loader must report "nothing to resume"
}

func edgeMatrix() []edgeCase {
	hdr := validHeader("j000001", "h1")
	wrongVer, _ := json.Marshal(checkpointHeader{
		Schema: CheckpointSchema, Version: CheckpointVersion + 1, Job: "j000001", SpecHash: "h1",
	})
	return []edgeCase{
		{name: "empty", data: nil, wantNil: true},
		{name: "header-only", data: manifestBytes(hdr), want: 0},
		{name: "wrong-version", data: manifestBytes(string(wrongVer), `{"i":0}`), wantNil: true},
		{name: "non-json-header", data: manifestBytes("not json", `{"i":0}`), wantNil: true},
		{name: "partial-header", data: []byte(`{"schema":"scalabletcc/job-ch`), wantNil: true},
		{name: "corrupt-middle", data: manifestBytes(hdr, `{"i":0}`, `{"i":1,CORRUPT`, `{"i":2}`), want: 1},
		{name: "blank-middle", data: manifestBytes(hdr, `{"i":0}`, ``, `{"i":2}`), want: 1},
		{name: "partial-tail", data: append(manifestBytes(hdr, `{"i":0}`), []byte(`{"i":1`)...), want: 1},
	}
}

// TestCheckpointEdgeMatrix covers the manifest loader's degenerate inputs:
// empty file, header-only file, wrong-version header, and a corrupt middle
// line (valid prefix kept, suffix dropped).
func TestCheckpointEdgeMatrix(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range edgeMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".jsonl")
			if tc.data != nil {
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := LoadCheckpoint(path, "h1")
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantNil {
				if entries != nil {
					t.Fatalf("want nothing to resume, got %q", entries)
				}
				return
			}
			if len(entries) != tc.want {
				t.Fatalf("want %d entries, got %q", tc.want, entries)
			}
		})
	}
}

// FuzzManifest holds the manifest loader to its contract on arbitrary
// bytes: every entry it returns is JSON, the valid prefix ends on a newline,
// and reopening the manifest for appending (which truncates it to that
// prefix, or recreates it under a foreign or broken header) and appending
// one entry reloads as the old entries plus the new one.
func FuzzManifest(f *testing.F) {
	for _, tc := range edgeMatrix() {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, validLen, ok := scanCheckpoint(data, "h1")
		for _, e := range entries {
			if !json.Valid(e) {
				t.Fatalf("entry %q is not JSON", e)
			}
		}
		if validLen < 0 || validLen > int64(len(data)) || validLen > 0 && data[validLen-1] != '\n' {
			t.Fatalf("valid prefix of %d bytes does not end on a newline", validLen)
		}
		if !ok && (entries != nil || validLen != 0) {
			t.Fatalf("refused manifest returned %d entries and a %d-byte prefix", len(entries), validLen)
		}
		path := filepath.Join(t.TempDir(), "m.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cw, err := AppendCheckpoint(path, "j000001", "h1")
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Append(map[string]int{"new": 1}); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(path, "h1")
		if err != nil {
			t.Fatal(err)
		}
		want := append(entries, []byte(`{"new":1}`))
		if len(got) != len(want) {
			t.Fatalf("reload has %d entries, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("reload entry %d is %q, want %q", i, got[i], want[i])
			}
		}
	})
}

// TestAppendCheckpointValidatesHeader exercises the reopen path: a manifest
// under a foreign spec hash (or with a broken header) is recreated, not
// extended, and a matching manifest is extended after truncation to its
// valid prefix.
func TestAppendCheckpointValidatesHeader(t *testing.T) {
	dir := t.TempDir()

	t.Run("foreign-spec-recreated", func(t *testing.T) {
		path := filepath.Join(dir, "foreign.jsonl")
		if err := os.WriteFile(path, manifestBytes(validHeader("j000009", "other"), `{"i":0}`), 0o644); err != nil {
			t.Fatal(err)
		}
		cw, err := AppendCheckpoint(path, "j000001", "h1")
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Append(map[string]int{"i": 1}); err != nil {
			t.Fatal(err)
		}
		cw.Close()
		// The stale entry recorded under "other" must be gone.
		if e, _ := LoadCheckpoint(path, "other"); e != nil {
			t.Fatalf("stale manifest survived recreation: %q", e)
		}
		e, err := LoadCheckpoint(path, "h1")
		if err != nil || len(e) != 1 || string(e[0]) != `{"i":1}` {
			t.Fatalf("recreated manifest: %q err=%v", e, err)
		}
	})

	t.Run("missing-file-created", func(t *testing.T) {
		path := filepath.Join(dir, "missing.jsonl")
		cw, err := AppendCheckpoint(path, "j000002", "h2")
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Append(map[string]int{"i": 7}); err != nil {
			t.Fatal(err)
		}
		cw.Close()
		e, err := LoadCheckpoint(path, "h2")
		if err != nil || len(e) != 1 {
			t.Fatalf("created manifest: %q err=%v", e, err)
		}
	})

	t.Run("corrupt-suffix-truncated", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt.jsonl")
		data := manifestBytes(validHeader("j000003", "h3"), `{"i":0}`, `{"i":1,BROKEN`, `{"i":2}`)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cw, err := AppendCheckpoint(path, "j000003", "h3")
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Append(map[string]int{"i": 3}); err != nil {
			t.Fatal(err)
		}
		cw.Close()
		e, err := LoadCheckpoint(path, "h3")
		if err != nil {
			t.Fatal(err)
		}
		if len(e) != 2 || string(e[0]) != `{"i":0}` || string(e[1]) != `{"i":3}` {
			t.Fatalf("append after corruption must extend the valid prefix: %q", e)
		}
	})
}

// TestCheckpointCrashMidAppendRoundTrip simulates the full crash → resume →
// re-load cycle the daemon performs: a manifest with a torn final line is
// reopened for append, extended, and loaded back — every durable entry
// written before the crash and every entry after the resume must survive.
func TestCheckpointCrashMidAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.jsonl")
	cw, err := CreateCheckpoint(path, "j000005", "h5")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cw.Append(map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a torn write leaves half an entry, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":5,"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume: reopen, append two more entries, reload.
	cw, err = AppendCheckpoint(path, "j000005", "h5")
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 7; i++ {
		if err := cw.Append(map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := LoadCheckpoint(path, "h5")
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 7 {
		t.Fatalf("want 7 entries after crash+resume, got %d: %q", len(e), e)
	}
	for i, ln := range e {
		if want := fmt.Sprintf(`{"i":%d}`, i); string(ln) != want {
			t.Fatalf("entry %d = %q, want %q", i, ln, want)
		}
	}
}

// TestCheckpointConcurrentAppend hammers one writer from many goroutines
// (run under -race in CI); every appended entry must be present exactly once
// afterwards.
func TestCheckpointConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.jsonl")
	cw, err := CreateCheckpoint(path, "j000006", "h6")
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := cw.Append(map[string]int{"id": w*perWriter + i}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := LoadCheckpoint(path, "h6")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, ln := range e {
		var v struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(ln, &v); err != nil {
			t.Fatalf("corrupt entry %q: %v", ln, err)
		}
		if seen[v.ID] {
			t.Fatalf("duplicate entry %d", v.ID)
		}
		seen[v.ID] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("want %d entries, got %d", writers*perWriter, len(seen))
	}
}
