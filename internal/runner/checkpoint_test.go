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

// loadManifest reads the manifest at path as a resume sees it: the entries
// of its valid prefix under specHash, nil when it has none to trust.
func loadManifest(t *testing.T, path, specHash string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	entries, _, _ := scanCheckpoint(data, specHash)
	return entries
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
	want    int  // entry count in the valid prefix
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
			entries := loadManifest(t, path, "h1")
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
// reopening the manifest for appending (which truncates it to that prefix,
// or recreates it under a foreign or broken header) returns exactly the
// entries scanCheckpoint finds, and appending one entry reloads as the old
// entries plus the new one.
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
		opened, cw, err := OpenCheckpoint(path, "j000001", "h1")
		if err != nil {
			t.Fatal(err)
		}
		if !equalEntries(opened, entries) {
			t.Fatalf("OpenCheckpoint returned %q, scanCheckpoint %q", opened, entries)
		}
		if err := cw.Append(map[string]int{"new": 1}); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		got := loadManifest(t, path, "h1")
		if want := append(entries, []byte(`{"new":1}`)); !equalEntries(got, want) {
			t.Fatalf("reload is %q, want %q", got, want)
		}
	})
}

// equalEntries reports whether a and b hold the same entry lines in order.
func equalEntries(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestOpenCheckpointValidatesHeader exercises the reopen path: a manifest
// under a foreign spec hash (or with a broken header) is recreated, not
// extended, and a matching manifest is extended after truncation to its
// valid prefix.
func TestOpenCheckpointValidatesHeader(t *testing.T) {
	dir := t.TempDir()

	t.Run("foreign-spec-recreated", func(t *testing.T) {
		path := filepath.Join(dir, "foreign.jsonl")
		if err := os.WriteFile(path, manifestBytes(validHeader("j000009", "other"), `{"i":0}`), 0o644); err != nil {
			t.Fatal(err)
		}
		e, cw, err := OpenCheckpoint(path, "j000001", "h1")
		if err != nil || e != nil {
			t.Fatalf("foreign manifest reopened with %q err=%v", e, err)
		}
		if err := cw.Append(map[string]int{"i": 1}); err != nil {
			t.Fatal(err)
		}
		cw.Close()
		// The stale entry recorded under "other" must be gone.
		if e := loadManifest(t, path, "other"); e != nil {
			t.Fatalf("stale manifest survived recreation: %q", e)
		}
		if e = loadManifest(t, path, "h1"); len(e) != 1 || string(e[0]) != `{"i":1}` {
			t.Fatalf("recreated manifest: %q", e)
		}
	})

	t.Run("missing-file-created", func(t *testing.T) {
		path := filepath.Join(dir, "missing.jsonl")
		e, cw, err := OpenCheckpoint(path, "j000002", "h2")
		if err != nil || e != nil {
			t.Fatalf("missing manifest opened with %q err=%v", e, err)
		}
		if err := cw.Append(map[string]int{"i": 7}); err != nil {
			t.Fatal(err)
		}
		cw.Close()
		if e = loadManifest(t, path, "h2"); len(e) != 1 {
			t.Fatalf("created manifest: %q", e)
		}
	})

	t.Run("corrupt-suffix-truncated", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt.jsonl")
		data := manifestBytes(validHeader("j000003", "h3"), `{"i":0}`, `{"i":1,BROKEN`, `{"i":2}`)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, cw, err := OpenCheckpoint(path, "j000003", "h3")
		if err != nil || len(e) != 1 || string(e[0]) != `{"i":0}` {
			t.Fatalf("corrupt manifest reopened with %q err=%v", e, err)
		}
		if err := cw.Append(map[string]int{"i": 3}); err != nil {
			t.Fatal(err)
		}
		cw.Close()
		e = loadManifest(t, path, "h3")
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
	e, cw, err := OpenCheckpoint(path, "j000005", "h5")
	if err != nil || len(e) != 5 {
		t.Fatalf("reopen after the torn write: %d entries err=%v", len(e), err)
	}
	for i := 5; i < 7; i++ {
		if err := cw.Append(map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	e = loadManifest(t, path, "h5")
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
	e := loadManifest(t, path, "h6")
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

// snapshotCase is one snapshot-file image and the entry ReadSnapshot must
// return for it under spec hash "h1" ("" = no snapshot).
type snapshotCase struct {
	name  string
	data  []byte
	entry string
}

func snapshotMatrix() []snapshotCase {
	hdr := validHeader("j000001", "h1")
	return []snapshotCase{
		{name: "one-entry", data: manifestBytes(hdr, `{"i":0}`), entry: `{"i":0}`},
		{name: "empty", data: nil},
		{name: "header-only", data: manifestBytes(hdr)},
		{name: "partial-header", data: []byte(hdr[:10])},
		{name: "non-json-header", data: manifestBytes("not json", `{"i":0}`)},
		{name: "foreign-spec", data: manifestBytes(validHeader("j000001", "other"), `{"i":0}`)},
		{name: "two-entries", data: manifestBytes(hdr, `{"i":0}`, `{"i":1}`)},
		{name: "no-final-newline", data: append(manifestBytes(hdr), `{"i":0}`...)},
		{name: "blank-entry", data: manifestBytes(hdr, ``)},
		{name: "trailing-blank-line", data: manifestBytes(hdr, `{"i":0}`, ``)},
	}
}

// ReadSnapshot returns the entry of a file holding a matching header and
// exactly one non-empty, newline-terminated line, and nothing for any other
// image (a missing file included); the entry is not parsed.
func TestReadSnapshotShapes(t *testing.T) {
	dir := t.TempDir()
	if e, err := ReadSnapshot(filepath.Join(dir, "missing"), "h1"); e != nil || err != nil {
		t.Fatalf("missing file: %q err=%v", e, err)
	}
	for _, tc := range snapshotMatrix() {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := ReadSnapshot(path, "h1")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.entry == "" && e != nil || string(e) != tc.entry {
			t.Errorf("%s: read %q, want %q", tc.name, e, tc.entry)
		}
	}
}

// A failed atomic write leaves the final path as it was, and a stray temp
// file from an earlier crash is overwritten by the next write.
func TestWriteAtomicKeepsFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j000001.ckpt.jsonl")
	if err := WriteSnapshot(path, "j000001", "h1", []byte(`{"i":`), []byte(`0}`)); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(path, "j000001", "h1", []byte(`{"i":1}`)); err == nil {
		t.Fatal("write through a temp path blocked by a directory succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("failed write changed the file: %q err=%v, want %q", got, err, old)
	}
	if e, _ := ReadSnapshot(path, "h1"); string(e) != `{"i":0}` {
		t.Fatalf("snapshot after the failed write: %q", e)
	}

	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte(`{"schema":"scalabletcc/job-check`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(path, "j000001", "h1", []byte(`{"i":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived the next write: %v", err)
	}
	if e, _ := ReadSnapshot(path, "h1"); string(e) != `{"i":2}` {
		t.Fatalf("snapshot after overwriting the stray temp file: %q", e)
	}
}

// FuzzSnapshotFile holds the snapshot reader to its contract on arbitrary
// bytes: it never panics, it returns an entry exactly when the file is a
// header bound to the spec plus one non-empty, newline-terminated line (and
// then that line), and whatever WriteSnapshot writes reads back
// byte-identical.
func FuzzSnapshotFile(f *testing.F) {
	for _, tc := range snapshotMatrix() {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := snapshotEntry(data, "h1")
		var want []byte
		if lines := bytes.Split(data, []byte("\n")); len(lines) == 3 && len(lines[1]) > 0 &&
			len(lines[2]) == 0 && headerMatches(lines[0], "h1") {
			want = lines[1]
		}
		if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("read %q, want %q", got, want)
		}

		entry := bytes.ReplaceAll(data, []byte("\n"), nil)
		if len(entry) == 0 {
			return
		}
		path := filepath.Join(t.TempDir(), "s.ckpt.jsonl")
		job := string(data[:len(data)/3])
		if err := WriteSnapshot(path, job, "h1", entry[:len(entry)/2], entry[len(entry)/2:]); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(path, "h1")
		if err != nil || !bytes.Equal(back, entry) {
			t.Fatalf("wrote %q, read back %q (err=%v)", entry, back, err)
		}
	})
}
