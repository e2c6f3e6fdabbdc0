package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// A checkpoint file makes a long job survive a restart. It holds one
// entry, the job's newest durable state: a run's newest kernel snapshot, or
// every cell a sweep has finished. WriteSnapshot replaces the whole file
// atomically at each write, so a reader sees the old entry or the new one,
// never a mix, and resume and fork read nothing older.
//
// The first line is a versioned header binding the file to one job spec
// (by hash): a file recorded under a different spec is ignored rather than
// replayed, so an edited job recomputes from scratch instead of mixing
// stale state in. ReadSnapshot enforces the binding.
const (
	// CheckpointSchema identifies the checkpoint document type.
	CheckpointSchema = "scalabletcc/job-checkpoint"
	// CheckpointVersion is bumped whenever a header or framing field
	// changes meaning; entry payloads are opaque to this package.
	CheckpointVersion = 1
)

// checkpointHeader is the checkpoint file's first line.
type checkpointHeader struct {
	Schema   string `json:"schema"`
	Version  int    `json:"version"`
	Job      string `json:"job"`
	SpecHash string `json:"spec_hash"`
}

// headerMatches reports whether line is a header binding its file to
// specHash under this package's schema and version.
func headerMatches(line []byte, specHash string) bool {
	var hdr checkpointHeader
	return json.Unmarshal(line, &hdr) == nil &&
		hdr.Schema == CheckpointSchema && hdr.Version == CheckpointVersion && hdr.SpecHash == specHash
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

// RemoveStaleTemp removes the temp file that a crash in the middle of
// replacing path (writeAtomic) left behind, if there is one. A job whose
// file is never replaced again would otherwise keep it forever.
func RemoveStaleTemp(path string) error {
	if err := os.Remove(path + ".tmp"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("runner: remove stale temp file: %w", err)
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
