package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Checkpoint manifests make long jobs survive a daemon restart: a producer
// (the sweep executor per completed cell, the run executor per kernel
// snapshot) appends one opaque JSONL entry per completed unit of work, and
// on resume reads the entries back instead of recomputing them. The file is
// line-oriented so a crash mid-write loses at most the final partial line —
// every complete line is a durable unit.
//
// The first line is a versioned header binding the manifest to one job spec
// (by hash): a manifest recorded under a different spec is ignored rather
// than replayed, so an edited job recomputes from scratch instead of mixing
// stale cells in. OpenCheckpoint enforces the same binding on reopen.
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
			var hdr checkpointHeader
			if err := json.Unmarshal(ln, &hdr); err != nil {
				return nil, 0, false
			}
			if hdr.Schema != CheckpointSchema || hdr.Version != CheckpointVersion || hdr.SpecHash != specHash {
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

// LoadCheckpoint reads the manifest at path and returns its entry lines
// (without the header). A missing file returns (nil, nil): nothing to
// resume. A manifest whose header fails validation or whose spec hash
// differs from specHash also returns (nil, nil) — stale state is skipped,
// not trusted — while an unreadable file is a real error. A trailing
// partial line (crash mid-append) is dropped, and a corrupt line drops it
// and everything after it: only the valid prefix is replayed. It never
// writes the file, so it can read a manifest another job is still
// appending to (a fork's parent); a job resuming from its own manifest
// opens it once with OpenCheckpoint instead.
func LoadCheckpoint(path, specHash string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: read checkpoint: %w", err)
	}
	entries, _, ok := scanCheckpoint(data, specHash)
	if !ok {
		return nil, nil
	}
	return entries, nil
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
// returns the entry lines LoadCheckpoint would (sub-slices of one read of
// the file) and a writer that appends after them. The header must bind the
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

// AppendRaw writes one pre-encoded entry line — the concatenation of pieces,
// which must be one compact JSON value holding no newline — and fsyncs it.
// A producer that already holds encoded bytes frames them around its own
// fields and passes the pieces, sparing Append's second encoding pass and
// any copy into a joined line.
func (cw *CheckpointWriter) AppendRaw(pieces ...[]byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.writeLine(pieces...)
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

// writeLine writes pieces and a newline, flushes and syncs; callers hold
// cw.mu. bufio.Writer errors are sticky, so the Flush reports any failed
// piece write.
func (cw *CheckpointWriter) writeLine(pieces ...[]byte) error {
	if cw.err != nil {
		return cw.err
	}
	for _, p := range pieces {
		cw.w.Write(p)
	}
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
