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

// fileImage builds a checkpoint file image from raw lines, each with a
// trailing newline.
func fileImage(lines ...string) []byte {
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

// snapshotCase is one snapshot-file image and the entry ReadSnapshot must
// return for it under spec hash "h1" ("" = no snapshot).
type snapshotCase struct {
	name  string
	data  []byte
	entry string
}

func snapshotMatrix() []snapshotCase {
	hdr := validHeader("j000001", "h1")
	wrongVer, _ := json.Marshal(checkpointHeader{
		Schema: CheckpointSchema, Version: CheckpointVersion + 1, Job: "j000001", SpecHash: "h1",
	})
	sweep := `[{"experiment":"fig7","index":0,"cycles":9},{"experiment":"fig7","index":1,"cycles":5}]`
	return []snapshotCase{
		{name: "one-entry", data: fileImage(hdr, `{"i":0}`), entry: `{"i":0}`},
		{name: "sweep-array", data: fileImage(hdr, sweep), entry: sweep},
		{name: "wrong-version", data: fileImage(string(wrongVer), `{"i":0}`)},
		// An append-only sweep manifest, the shape sweeps wrote before they
		// kept their cells in one entry: one line per cell, the last one
		// possibly torn by a crash.
		{name: "old-manifest", data: fileImage(hdr, `{"i":0}`, `{"i":1}`, `{"i":2}`)},
		{name: "old-manifest-torn-tail", data: append(fileImage(hdr, `{"i":0}`), `{"i":1`...)},
		{name: "old-manifest-corrupt-middle", data: fileImage(hdr, `{"i":0}`, `{"i":1,CORRUPT`, `{"i":2}`)},
		{name: "old-manifest-blank-middle", data: fileImage(hdr, `{"i":0}`, ``, `{"i":2}`)},
		{name: "empty", data: nil},
		{name: "header-only", data: fileImage(hdr)},
		{name: "partial-header", data: []byte(hdr[:10])},
		{name: "non-json-header", data: fileImage("not json", `{"i":0}`)},
		{name: "foreign-spec", data: fileImage(validHeader("j000001", "other"), `{"i":0}`)},
		{name: "two-entries", data: fileImage(hdr, `{"i":0}`, `{"i":1}`)},
		{name: "no-final-newline", data: append(fileImage(hdr), `{"i":0}`...)},
		{name: "blank-entry", data: fileImage(hdr, ``)},
		{name: "trailing-blank-line", data: fileImage(hdr, `{"i":0}`, ``)},
	}
}

// ReadSnapshot returns the entry of a file holding a matching header and
// exactly one non-empty, newline-terminated line, and nothing for any other
// image (a missing file included); the entry is not parsed.
func TestReadSnapshotShapes(t *testing.T) {
	dir := t.TempDir()
	t.Run("missing", func(t *testing.T) {
		if e, err := ReadSnapshot(filepath.Join(dir, "missing"), "h1"); e != nil || err != nil {
			t.Fatalf("missing file: %q err=%v", e, err)
		}
	})
	for _, tc := range snapshotMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := ReadSnapshot(path, "h1")
			if err != nil {
				t.Fatal(err)
			}
			if tc.entry == "" && e != nil || string(e) != tc.entry {
				t.Errorf("read %q, want %q", e, tc.entry)
			}
		})
	}
}

// Readers racing a writer that keeps replacing the file each see one whole
// snapshot, never a mix of two or a partial one, and never an older one
// than they saw before (run under -race in CI).
func TestReadSnapshotDuringRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j000001.ckpt.jsonl")
	pad := bytes.Repeat([]byte("x"), 8<<10)
	entry := func(i int) [][]byte {
		return [][]byte{[]byte(fmt.Sprintf(`{"i":%d,"pad":"`, i)), pad, []byte(`"}`)}
	}
	if err := WriteSnapshot(path, "j000001", "h1", entry(0)...); err != nil {
		t.Fatal(err)
	}
	const writes, readers = 40, 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				e, err := ReadSnapshot(path, "h1")
				if err != nil || e == nil {
					t.Errorf("read during rewrite: %d bytes err=%v", len(e), err)
					return
				}
				var v struct {
					I   int    `json:"i"`
					Pad string `json:"pad"`
				}
				if err := json.Unmarshal(e, &v); err != nil || v.Pad != string(pad) {
					t.Errorf("read a mixed or partial snapshot of %d bytes: %v", len(e), err)
					return
				}
				if v.I < last {
					t.Errorf("read snapshot %d after %d", v.I, last)
					return
				}
				last = v.I
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		if err := WriteSnapshot(path, "j000001", "h1", entry(i)...); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if e, _ := ReadSnapshot(path, "h1"); !bytes.Equal(e, bytes.Join(entry(writes), nil)) {
		t.Fatalf("final snapshot is not the last write: %d bytes", len(e))
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
