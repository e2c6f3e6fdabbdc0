package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Checkpoint files make long jobs survive a daemon restart. They come in
// two shapes that share one header:
//
//   - A sweep's manifest is append-only: the sweep executor appends one
//     opaque JSONL entry per completed cell, and on resume reads every entry
//     back instead of recomputing it. A crash mid-write loses at most the
//     final partial line — every complete line is a durable unit.
//   - A run's snapshot file holds one entry, the newest kernel snapshot:
//     resume and fork read nothing older. WriteSnapshot replaces the whole
//     file atomically at each cut, so a reader sees the old snapshot or the
//     new one, never a mix.
//
// The first line is a versioned header binding the file to one job spec
// (by hash): a file recorded under a different spec is ignored rather than
// replayed, so an edited job recomputes from scratch instead of mixing
// stale cells in. OpenCheckpoint and ReadSnapshot enforce the binding.
const (
	// CheckpointSchema identifies the manifest document type.
	CheckpointSchema = "scalabletcc/job-checkpoint"
	// CheckpointVersion is bumped whenever a header or framing field
	// changes meaning; entry payloads are opaque to this package.
	CheckpointVersion = 1
)

// checkpointHeader is the manifest's first line.
type checkpointHeader struct {
	Schema   string `json:"schema"`
	Version  int    `json:"version"`
	Job      string `json:"job"`
	SpecHash string `json:"spec_hash"`
}

// scanCheckpoint walks the manifest bytes and returns the entry lines of the
// valid prefix (sub-slices of data, not copies), the byte length of that
// prefix (header line included), and whether the header matched (schema,
// version, spec hash). Scanning stops at the first partial line (no
// terminating newline) or non-JSON line; entries past that point are
// corruption, never trusted.
func scanCheckpoint(data []byte, specHash string) (entries [][]byte, validLen int64, headerOK bool) {
	rest := data
	first := true
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // partial trailing line: crash mid-append
		}
		ln := rest[:nl]
		if first {
			if !headerMatches(ln, specHash) {
				return nil, 0, false
			}
			first = false
		} else {
			if len(ln) == 0 || !json.Valid(ln) {
				break // corruption: keep the valid prefix only
			}
			entries = append(entries, ln[:len(ln):len(ln)])
		}
		validLen += int64(nl + 1)
		rest = rest[nl+1:]
	}
	if first {
		return nil, 0, false // empty file (or partial header line)
	}
	return entries, validLen, true
}

// headerMatches reports whether line is a header binding its file to
// specHash under this package's schema and version.
func headerMatches(line []byte, specHash string) bool {
	var hdr checkpointHeader
	return json.Unmarshal(line, &hdr) == nil &&
		hdr.Schema == CheckpointSchema && hdr.Version == CheckpointVersion && hdr.SpecHash == specHash
}

// CheckpointWriter appends entries to a manifest. Append is safe for
// concurrent use (sweep cells complete on worker goroutines) and fsyncs
// each entry's line before returning, so a completed unit of work survives
// both a process kill and a host crash once Append returns.
type CheckpointWriter struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

// CreateCheckpoint truncates (or creates) the manifest at path and writes
// the header binding it to (jobID, specHash).
func CreateCheckpoint(path, jobID, specHash string) (*CheckpointWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runner: create checkpoint: %w", err)
	}
	cw := &CheckpointWriter{f: f, w: bufio.NewWriter(f)}
	if err := cw.appendJSON(checkpointHeader{
		Schema: CheckpointSchema, Version: CheckpointVersion, Job: jobID, SpecHash: specHash,
	}); err != nil {
		f.Close()
		return nil, err
	}
	return cw, nil
}

// OpenCheckpoint opens the manifest at path to resume a job from it: it
// returns the entry lines of the file's valid prefix (sub-slices of one read
// of the file) and a writer that appends after them. The header must bind the
// file to specHash: a missing manifest, one recorded under a different spec,
// or one with an unreadable header is recreated and yields no entries. A
// matching manifest is truncated to its valid prefix, so entries never land
// after a corrupt line where the next load would silently discard them.
func OpenCheckpoint(path, jobID, specHash string) ([][]byte, *CheckpointWriter, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("runner: open checkpoint: %w", err)
	}
	entries, validLen, ok := scanCheckpoint(data, specHash)
	if !ok {
		cw, err := CreateCheckpoint(path, jobID, specHash)
		return nil, cw, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("runner: open checkpoint: %w", err)
	}
	if validLen < int64(len(data)) {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("runner: truncate checkpoint to valid prefix: %w", err)
		}
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("runner: seek checkpoint: %w", err)
	}
	return entries, &CheckpointWriter{f: f, w: bufio.NewWriter(f)}, nil
}

// Append writes one entry line and fsyncs it.
func (cw *CheckpointWriter) Append(entry any) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.appendJSON(entry)
}

// appendJSON marshals, writes, and syncs one line; callers hold cw.mu (or
// own the writer exclusively, as CreateCheckpoint does).
func (cw *CheckpointWriter) appendJSON(v any) error {
	if cw.err != nil {
		return cw.err
	}
	data, err := json.Marshal(v)
	if err != nil {
		cw.err = fmt.Errorf("runner: encode checkpoint entry: %w", err)
		return cw.err
	}
	return cw.writeLine(data)
}

// writeLine writes data and a newline, flushes and syncs; callers hold
// cw.mu. bufio.Writer errors are sticky, so the Flush reports a failed
// write.
func (cw *CheckpointWriter) writeLine(data []byte) error {
	if cw.err != nil {
		return cw.err
	}
	cw.w.Write(data)
	cw.w.WriteByte('\n')
	err := cw.w.Flush()
	if err == nil {
		err = cw.f.Sync()
	}
	if err != nil {
		cw.err = err
	}
	return cw.err
}

// Close flushes, syncs, and closes the manifest file.
func (cw *CheckpointWriter) Close() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	flushErr := cw.w.Flush()
	syncErr := cw.f.Sync()
	closeErr := cw.f.Close()
	if cw.err != nil {
		return cw.err
	}
	for _, err := range []error{flushErr, syncErr, closeErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshot reads the snapshot file at path (see WriteSnapshot) and
// returns its entry line without the newline, a sub-slice of one read of
// the file. It checks only the header (schema, version, spec hash) and that
// the rest of the file is exactly one non-empty, newline-terminated line;
// the entry's bytes are the caller's to validate. A missing file, a header
// bound to another spec, and a file of any other shape return (nil, nil):
// there is no snapshot to resume from. Only a failed read is an error. It
// never writes the file, so it can read one another job is still replacing
// (a fork's parent).
func ReadSnapshot(path, specHash string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: read checkpoint: %w", err)
	}
	return snapshotEntry(data, specHash), nil
}

// snapshotEntry is ReadSnapshot's check on the bytes of a snapshot file.
func snapshotEntry(data []byte, specHash string) []byte {
	hdr, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || !headerMatches(hdr, specHash) {
		return nil
	}
	n := len(rest) - 1
	if n < 1 || bytes.IndexByte(rest, '\n') != n {
		return nil
	}
	return rest[:n:n]
}

// WriteSnapshot replaces the snapshot file at path with the header binding
// it to (jobID, specHash) and one entry line, the concatenation of entry,
// which must be non-empty and hold no newline. The file is replaced
// atomically (see writeAtomic): a crash or a concurrent ReadSnapshot sees
// the previous snapshot or this one, never a partial file.
func WriteSnapshot(path, jobID, specHash string, entry ...[]byte) error {
	hdr, err := json.Marshal(checkpointHeader{
		Schema: CheckpointSchema, Version: CheckpointVersion, Job: jobID, SpecHash: specHash,
	})
	if err != nil {
		return fmt.Errorf("runner: encode checkpoint header: %w", err)
	}
	pieces := make([][]byte, 0, len(entry)+2)
	pieces = append(pieces, append(hdr, '\n'))
	pieces = append(pieces, entry...)
	pieces = append(pieces, []byte{'\n'})
	if err := writeAtomic(path, pieces...); err != nil {
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	return nil
}

// writeAtomic replaces the file at path with the concatenation of pieces so
// that a crash at any point leaves either the old file or the new one: it
// writes <path>.tmp, fsyncs it, renames it over path, and fsyncs the
// directory so the rename itself is durable. A stray temp file from an
// earlier crash is overwritten. A failure before the rename leaves path
// untouched and removes the temp file this call created.
func writeAtomic(path string, pieces ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	for _, p := range pieces {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
