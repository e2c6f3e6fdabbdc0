// Run-job checkpointing: the glue between the kernel snapshots of
// System.RunCheckpointed and the runner's crash-safe manifest machinery.
// Each manifest entry is one kernel checkpoint plus the byte offset of the
// event stream at the cut; a sidecar file next to the manifest retains the
// emitted stream so a resumed job can replay the prefix and continue the
// stream byte-identically. Stale or unusable state is never trusted: any
// defect in the manifest, sidecar, or snapshot falls back to recomputing
// from scratch, which is always correct, just slower.

package tcc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"scalabletcc/internal/obs"
	"scalabletcc/internal/runner"
)

// runCheckpointEntry is one line of a run job's checkpoint manifest: the
// cycle of the quiescent cut, the number of event-stream bytes emitted
// before it, and the kernel snapshot itself. save frames the same bytes by
// hand around the already-encoded snapshot.
type runCheckpointEntry struct {
	Cycle      uint64          `json:"cycle"`
	EventBytes int64           `json:"event_bytes"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// countingWriter tracks the logical event-stream offset (replayed prefix
// plus everything written since) so each manifest entry can record where in
// the stream its cut lies.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// sidecarWriter buffers the event-stream copy in the sidecar file, so the
// stream costs one write(2) per cut rather than one per line. It is locked
// because runGuarded abandons, rather than stops, a canceled run: its
// simulation goroutine may still be writing when close runs.
type sidecarWriter struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

func (s *sidecarWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Flush writes the buffered lines to the file.
func (s *sidecarWriter) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close flushes and closes the file. Errors are dropped: a resume trusts
// the sidecar only up to a durable entry's event_bytes, which save already
// flushed.
func (s *sidecarWriter) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Flush()
	s.f.Close()
}

// runCheckpointer owns one run job's checkpoint lifecycle: resuming from the
// manifest's latest snapshot, replaying the event-stream prefix, and
// appending a durable entry at each cut.
type runCheckpointer struct {
	every   uint64
	resumed bool
	sys     *System // restored machine; nil = start fresh
	prefix  []byte  // event-stream bytes emitted before the resumed cut

	cw *runner.CheckpointWriter
	// appendEntry makes one manifest line durable: cw.AppendRaw, or in a
	// test a wrapper that inspects the files at that instant.
	appendEntry func(pieces ...[]byte) error
	// sidecar holds the stream copy; save flushes it before each manifest
	// append, so a durable entry's event_bytes are on disk.
	sidecar *sidecarWriter
	counter *countingWriter
	head    []byte // reused manifest-entry framing
}

// newRunCheckpointer loads any resumable state at jc.CheckpointPath and
// opens the manifest (and, when the job streams events, the sidecar) for
// appending. wantEvents says whether the job has an event sink attached —
// without one there is no stream to preserve and the sidecar is skipped.
func newRunCheckpointer(spec *JobSpec, cfg Config, prog Program, jc *JobContext, wantEvents bool) (*runCheckpointer, error) {
	specHash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	path := jc.CheckpointPath
	rc := &runCheckpointer{every: spec.Run.CheckpointEvery}
	entries, err := runner.LoadCheckpoint(path, specHash)
	if err != nil {
		return nil, err
	}
	if len(entries) > 0 {
		rc.loadLatest(entries, cfg, prog, path, wantEvents, jc.Logf)
	}

	if rc.resumed {
		rc.cw, err = runner.AppendCheckpoint(path, jc.ID, specHash)
	} else {
		rc.cw, err = runner.CreateCheckpoint(path, jc.ID, specHash)
	}
	if err != nil {
		return nil, err
	}
	rc.appendEntry = rc.cw.AppendRaw
	if wantEvents {
		f, err := os.OpenFile(eventSidecar(path), os.O_WRONLY|os.O_CREATE, 0o644)
		if err == nil {
			if terr := f.Truncate(int64(len(rc.prefix))); terr == nil {
				_, err = f.Seek(int64(len(rc.prefix)), 0)
			} else {
				err = terr
			}
		}
		if err != nil {
			rc.cw.Close()
			return nil, fmt.Errorf("tcc: event sidecar: %w", err)
		}
		rc.sidecar = &sidecarWriter{f: f, w: bufio.NewWriter(f)}
	}
	return rc, nil
}

// stream replays the event-stream prefix emitted before the resumed cut into
// sink and returns the JSONL stream for the rest of the run. Its lines go
// through the offset counter into both sink and the sidecar (which already
// holds the prefix). The checkpointer must have been opened with
// wantEvents.
func (rc *runCheckpointer) stream(sink io.Writer) (*obs.JSONLStream, error) {
	rc.counter = &countingWriter{w: io.MultiWriter(sink, rc.sidecar), n: int64(len(rc.prefix))}
	if len(rc.prefix) == 0 {
		return obs.NewJSONLStream(rc.counter), nil
	}
	if _, err := sink.Write(rc.prefix); err != nil {
		return nil, fmt.Errorf("tcc: replay event-stream prefix: %w", err)
	}
	return obs.ResumeJSONLStream(rc.counter), nil
}

// loadLatest restores the manifest's newest snapshot, falling back to a
// fresh start (rc untouched beyond what succeeded) on any defect.
func (rc *runCheckpointer) loadLatest(entries [][]byte, cfg Config, prog Program,
	path string, wantEvents bool, logf func(string, ...any)) {
	var e runCheckpointEntry
	if err := json.Unmarshal(entries[len(entries)-1], &e); err != nil || len(e.Checkpoint) == 0 {
		logf("checkpoint entry undecodable; recomputing from scratch")
		return
	}
	var prefix []byte
	if wantEvents && e.EventBytes > 0 {
		data, err := os.ReadFile(eventSidecar(path))
		if err != nil || int64(len(data)) < e.EventBytes {
			logf("event sidecar cannot reproduce the emitted stream prefix; recomputing from scratch")
			return
		}
		prefix = data[:e.EventBytes]
	}
	var ck Checkpoint
	if err := json.Unmarshal(e.Checkpoint, &ck); err != nil {
		logf("kernel snapshot undecodable; recomputing from scratch")
		return
	}
	sys, err := RestoreSystem(cfg, prog, &ck)
	if err != nil {
		logf("kernel snapshot does not restore (%v); recomputing from scratch", err)
		return
	}
	rc.sys, rc.prefix, rc.resumed = sys, prefix, true
}

// save appends one durable manifest entry for the snapshot at a cut. The
// line is framed by hand around the encoded snapshot; raw is compact,
// HTML-escaped json.Marshal output, so the bytes equal
// json.Marshal(runCheckpointEntry{...}).
func (rc *runCheckpointer) save(ck *Checkpoint) error {
	raw, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("tcc: encode checkpoint: %w", err)
	}
	cycle := uint64(ck.Kernels[0].Now)
	var n int64
	if rc.counter != nil {
		// The resume path trusts a durable entry's event_bytes to be in the
		// sidecar, so the sidecar is flushed before the entry is appended.
		if err := rc.sidecar.Flush(); err != nil {
			return fmt.Errorf("tcc: event sidecar: %w", err)
		}
		n = rc.counter.n
	}
	rc.head = append(rc.head[:0], `{"cycle":`...)
	rc.head = strconv.AppendUint(rc.head, cycle, 10)
	rc.head = append(rc.head, `,"event_bytes":`...)
	rc.head = strconv.AppendInt(rc.head, n, 10)
	rc.head = append(rc.head, `,"checkpoint":`...)
	return rc.appendEntry(rc.head, raw, closeBrace)
}

var closeBrace = []byte("}")

func (rc *runCheckpointer) close() {
	if rc.cw != nil {
		rc.cw.Close()
	}
	if rc.sidecar != nil {
		rc.sidecar.Close()
	}
}

// eventSidecar is the stream-retention file next to a run job's manifest.
func eventSidecar(ckptPath string) string { return ckptPath + ".events" }
