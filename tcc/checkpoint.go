// Run-job checkpointing: the glue between the kernel snapshots of
// System.RunCheckpointed and the runner's crash-safe snapshot file. The file
// holds one entry, the newest kernel checkpoint plus the byte offset of the
// event stream at its cut, and each cut replaces it atomically; a sidecar
// file next to it retains the emitted stream so a resumed job can replay
// the prefix and continue the stream byte-identically. Stale or unusable
// state is never trusted: any defect in the snapshot file, sidecar, or
// snapshot falls back to recomputing from scratch, which is always correct,
// just slower.

package tcc

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"scalabletcc/internal/core"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/runner"
)

// appendEntryHead appends the bytes of a snapshot entry that precede its
// checkpoint. An entry is the line after a run job's checkpoint-file
// header, {"cycle":N,"event_bytes":M,"checkpoint":{…}}: the cycle of the
// quiescent cut, the number of event-stream bytes emitted before it, and
// the kernel snapshot itself. save and PrepareForkJob write this frame and nothing
// else, and readEntry reads only it.
func appendEntryHead(b []byte, cycle uint64, eventBytes int64) []byte {
	b = append(b, `{"cycle":`...)
	b = strconv.AppendUint(b, cycle, 10)
	b = append(b, `,"event_bytes":`...)
	b = strconv.AppendInt(b, eventBytes, 10)
	return append(b, `,"checkpoint":`...)
}

var closeBrace = []byte("}")

// readEntry reads one snapshot entry in the frame appendEntryHead starts:
// the head with plain decimal numbers, then the checkpoint, which runs to
// the line's final '}' and must start with '{'. The checkpoint comes back
// unread, as a sub-slice of line: core.DecodeCheckpoint validates it on
// resume, so bytes after the snapshot object fail there. Any other line is
// refused, and a resume then recomputes from scratch.
func readEntry(line []byte) (cycle uint64, eventBytes int64, ck []byte, err error) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"cycle":`))
	if ok {
		cycle, rest, ok = cutDecimal(rest, `,"event_bytes":`)
	}
	var n uint64
	if ok {
		n, rest, ok = cutDecimal(rest, `,"checkpoint":`)
	}
	if !ok || n > math.MaxInt64 || len(rest) < 2 || rest[0] != '{' || rest[len(rest)-1] != '}' {
		return 0, 0, nil, fmt.Errorf("tcc: checkpoint entry is not in the snapshot entry frame")
	}
	return cycle, int64(n), rest[:len(rest)-1], nil
}

// cutDecimal reads the unsigned decimal at the start of b, which must be
// followed by sep, and returns it with the rest of b after sep.
func cutDecimal(b []byte, sep string) (uint64, []byte, bool) {
	i := 0
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == 0 || (i > 1 && b[0] == '0') || !bytes.HasPrefix(b[i:], []byte(sep)) {
		return 0, nil, false
	}
	v, err := strconv.ParseUint(string(b[:i]), 10, 64)
	return v, b[i+len(sep):], err == nil
}

// countingWriter tracks the logical event-stream offset (replayed prefix
// plus everything written since) so each snapshot entry can record where in
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

// runCheckpointer owns one run job's checkpoint lifecycle: resuming from the
// snapshot file, replaying the event-stream prefix, and replacing the
// snapshot at each cut.
type runCheckpointer struct {
	every   uint64
	resumed bool
	sys     *System // restored machine; nil = start fresh
	prefix  []byte  // event-stream bytes emitted before the resumed cut

	// writeEntry makes one snapshot entry, the concatenation of pieces,
	// durable in place of the last: runner.WriteSnapshot, or in a test a
	// wrapper that inspects the files at that instant.
	writeEntry func(pieces ...[]byte) error
	// sidecar holds the stream copy. It takes the stream's blocks as they
	// are written, and save flushes the stream before each snapshot write,
	// so a durable entry's event_bytes are on disk.
	sidecar *os.File
	counter *countingWriter
	events  *obs.JSONLStream
	head    []byte // reused snapshot-entry framing
}

// newRunCheckpointer removes the snapshot file's stale temp file, reads
// the file at jc.CheckpointPath, restores its snapshot if it has one, and
// opens the sidecar when the job streams events. A snapshot that does not
// restore is left for the first save to replace. wantEvents says whether
// the job has an event sink attached — without one there is no stream to
// preserve and the sidecar is skipped.
func newRunCheckpointer(spec *JobSpec, cfg Config, prog Program, jc *JobContext, wantEvents bool) (*runCheckpointer, error) {
	specHash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	path := jc.CheckpointPath
	if err := runner.RemoveStaleTemp(path); err != nil {
		return nil, err
	}
	rc := &runCheckpointer{every: spec.Run.CheckpointEvery}
	rc.writeEntry = func(pieces ...[]byte) error {
		return runner.WriteSnapshot(path, jc.ID, specHash, pieces...)
	}
	entry, err := runner.ReadSnapshot(path, specHash)
	if err != nil {
		return nil, err
	}
	if entry != nil {
		rc.loadLatest(entry, cfg, prog, path, wantEvents, jc.Logf)
	}
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
			return nil, fmt.Errorf("tcc: event sidecar: %w", err)
		}
		rc.sidecar = f
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
		rc.events = obs.NewJSONLStream(rc.counter)
	} else if _, err := sink.Write(rc.prefix); err != nil {
		return nil, fmt.Errorf("tcc: replay event-stream prefix: %w", err)
	} else {
		rc.events = obs.ResumeJSONLStream(rc.counter)
	}
	return rc.events, nil
}

// loadLatest restores the snapshot in entry, falling back to a fresh start
// (rc untouched beyond what succeeded) on any defect. It reports the
// fallback's reason, or the cycle it resumed at, through logf.
func (rc *runCheckpointer) loadLatest(entry []byte, cfg Config, prog Program,
	path string, wantEvents bool, logf func(string, ...any)) {
	cycle, eventBytes, raw, err := readEntry(entry)
	if err != nil {
		logf("checkpoint entry undecodable; recomputing from scratch")
		return
	}
	var prefix []byte
	if wantEvents && eventBytes > 0 {
		data, err := os.ReadFile(eventSidecar(path))
		if err != nil || int64(len(data)) < eventBytes {
			logf("event sidecar cannot reproduce the emitted stream prefix; recomputing from scratch")
			return
		}
		prefix = data[:eventBytes]
	}
	ck, err := core.DecodeCheckpoint(raw)
	if err != nil {
		logf("kernel snapshot undecodable; recomputing from scratch")
		return
	}
	sys, err := RestoreSystem(cfg, prog, ck)
	if err != nil {
		logf("kernel snapshot does not restore (%v); recomputing from scratch", err)
		return
	}
	rc.sys, rc.prefix, rc.resumed = sys, prefix, true
	logf("resumed from the checkpoint at cycle %d", cycle)
}

// save replaces the snapshot file with a durable entry for the snapshot at
// a cut. The line is framed by hand around the snapshot, which is encoded
// into a recycled buffer.
func (rc *runCheckpointer) save(ck *Checkpoint) error {
	var n int64
	if rc.events != nil {
		// The resume path trusts a durable entry's event_bytes to be in the
		// sidecar, so the stream is flushed before the entry is written.
		if err := rc.events.Flush(); err != nil {
			return fmt.Errorf("tcc: event stream: %w", err)
		}
		n = rc.counter.n
	}
	rc.head = appendEntryHead(rc.head[:0], uint64(ck.Kernels[0].Now), n)
	var buf []byte
	select {
	case buf = <-ckBufs:
	default:
	}
	buf = core.AppendCheckpoint(buf[:0], ck)
	err := rc.writeEntry(rc.head, buf, closeBrace)
	select {
	case ckBufs <- buf:
	default:
	}
	return err
}

// ckBufs recycles snapshot encodings between cuts and across jobs. A
// snapshot runs to hundreds of kilobytes, and growing a fresh buffer to that
// size for every job copies about as many bytes as the encoding writes. (A
// sync.Pool would not keep them: the collector empties it every cycle or
// two, and a job collects several times.) A buffer is held only inside
// save, so no two saves share one. The capacity bounds what idle buffers
// keep alive; saves run one per busy worker, and a buffer returned when
// four wait is dropped.
var ckBufs = make(chan []byte, 4)

// close closes the sidecar once the run has returned. Errors are dropped:
// a resume trusts the sidecar only up to a durable entry's event_bytes,
// which save flushed before writing the entry.
func (rc *runCheckpointer) close() {
	if rc.sidecar != nil {
		rc.sidecar.Close()
	}
}

// eventSidecar is the stream-retention file next to a run job's snapshot
// file.
func eventSidecar(ckptPath string) string { return ckptPath + ".events" }
