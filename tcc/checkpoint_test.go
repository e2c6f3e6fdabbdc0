package tcc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"scalabletcc/internal/core"
	"scalabletcc/internal/runner"
)

// marshalObserver is the reference encoder: one json.Marshal(e) line per
// event.
type marshalObserver struct{ buf bytes.Buffer }

func (m *marshalObserver) Event(e Event) {
	b, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	m.buf.Write(b)
	m.buf.WriteByte('\n')
}

const streamHeaderLine = `{"schema":"scalabletcc/events","version":1}` + "\n"

// snapshotEntry is the reference encoding of a run job's snapshot entry:
// save's frame is json.Marshal of it.
type snapshotEntry struct {
	Cycle      uint64          `json:"cycle"`
	EventBytes int64           `json:"event_bytes"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// checkpointedSpec returns a verified run spec whose checkpoint cadence puts
// about four cuts in the run, and the stream of an uninterrupted run.
func checkpointedSpec(t *testing.T, app string, procs int, scale float64) (*JobSpec, []byte) {
	t.Helper()
	spec := NewJobSpec(JobKindRun)
	spec.Run = &RunSpec{App: app, Procs: procs, Scale: scale, Seed: 3, Verify: true}
	var stream bytes.Buffer
	plain, err := RunJob(context.Background(), spec, &RunJobOptions{EventWriter: &stream})
	if err != nil {
		t.Fatal(err)
	}
	spec.Run.CheckpointEvery = uint64(plain.Proto.Scalable.Cycles)/4 + 1
	return spec, stream.Bytes()
}

// runWithSnapshotHook runs spec's checkpointed job from scratch the way
// executeRun does, with the checkpoint file at path, ref (if not nil)
// observing beside the stream, and every snapshot write passing through
// hook, which makes it durable by calling write. It returns the run's
// results and the stream it emitted.
func runWithSnapshotHook(t *testing.T, spec *JobSpec, path string, ref Observer,
	hook func(write func(...[]byte) error, pieces ...[]byte) error) (*Results, []byte) {
	t.Helper()
	rc, cfg, prog := openCheckpointer(t, spec, path, true)
	defer rc.close()
	write := rc.writeEntry
	rc.writeEntry = func(pieces ...[]byte) error { return hook(write, pieces...) }
	var live bytes.Buffer
	stream, err := rc.stream(&live)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys.Observe(TeeObservers(ref, stream))
	res, err := sys.RunCheckpointed(rc.every, rc.save)
	if err != nil {
		t.Fatal(err)
	}
	// executeRun flushes the stream's last block when the run ends.
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, live.Bytes()
}

// openCheckpointer opens spec's run checkpointer on the file at path, as
// executeRun does, and returns it with the machine config and program.
func openCheckpointer(t *testing.T, spec *JobSpec, path string, wantEvents bool) (*runCheckpointer, Config, Program) {
	t.Helper()
	jc := runner.NewJobContext()
	jc.ID, jc.CheckpointPath = "run", path
	cfg := runConfig(spec.Run)
	prof, err := ProfileByNameErr(spec.Run.App)
	if err != nil {
		t.Fatal(err)
	}
	prog := prof.Scale(spec.Run.Scale).Build(spec.Run.Procs, cfg.Seed)
	rc, err := newRunCheckpointer(spec, cfg, prog, jc, wantEvents)
	if err != nil {
		t.Fatal(err)
	}
	return rc, cfg, prog
}

// checkStateDir fails unless dir holds the checkpoint file at path (when
// saved says a snapshot was written), its event sidecar, and at most its
// one temp file: a run keeps one snapshot, however many cuts it takes.
func checkStateDir(t *testing.T, dir, path string, saved bool) {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := 0
	for _, f := range files {
		switch filepath.Join(dir, f.Name()) {
		case path:
			snapshots++
		case path + ".tmp", eventSidecar(path):
		default:
			t.Fatalf("state dir holds %s besides the snapshot, its temp file and the sidecar", f.Name())
		}
	}
	if want := map[bool]int{false: 0, true: 1}[saved]; snapshots != want {
		t.Fatalf("state dir holds %d snapshot files, want %d", snapshots, want)
	}
}

// The event encoder's contract end to end: a checkpointed, verified job's
// stream is byte-identical to json.Marshal of the same events. At every
// save, the state dir holds one snapshot file (none before the first) plus
// at most one temp file, and right after it the file holds exactly the
// entry just written.
func TestCheckpointedStreamMatchesMarshal(t *testing.T) {
	spec, _ := checkpointedSpec(t, "barnes", 8, 0.02)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt.jsonl")
	ref := &marshalObserver{}
	saves := 0
	res, live := runWithSnapshotHook(t, spec, path, ref, func(write func(...[]byte) error, pieces ...[]byte) error {
		checkStateDir(t, dir, path, saves > 0)
		if err := write(pieces...); err != nil {
			return err
		}
		saves++
		checkStateDir(t, dir, path, true)
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("save %d left its temp file behind (%v)", saves, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, entry, _ := bytes.Cut(data, []byte("\n"))
		if !bytes.Equal(entry, append(bytes.Join(pieces, nil), '\n')) {
			t.Fatalf("after save %d the file does not hold exactly the entry just written", saves)
		}
		return nil
	})
	if saves < 2 {
		t.Fatalf("%d saves, want at least 2", saves)
	}
	if v := Verify(res); len(v) != 0 {
		t.Fatalf("checkpointed run failed the serializability oracle: %d violations", len(v))
	}
	want := append([]byte(streamHeaderLine), ref.buf.Bytes()...)
	if !bytes.Equal(live, want) {
		t.Fatalf("stream (%d bytes) differs from json.Marshal lines (%d bytes)", len(live), len(want))
	}
}

// At the instant each snapshot is written, the sidecar on disk must already
// hold the entry's event_bytes; a resume from the files as they stand right
// after each write (a crash image), with a torn temp file from a later save
// beside them, must reproduce the uninterrupted summary and stream byte for
// byte, and its own next save overwrites that temp file.
func TestSidecarCoversEveryManifestEntry(t *testing.T) {
	spec, want := checkpointedSpec(t, "hotspot", 4, 0.1)
	plainSpec := *spec
	plainRun := *spec.Run
	plainRun.CheckpointEvery = 0
	plainSpec.Run = &plainRun
	plain, err := RunJob(context.Background(), &plainSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
	type crashImage struct{ snapshot, sidecar []byte }
	var images []crashImage
	_, live := runWithSnapshotHook(t, spec, path, nil, func(write func(...[]byte) error, pieces ...[]byte) error {
		line := bytes.Join(pieces, nil)
		var e snapshotEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("snapshot entry is not JSON: %v", err)
		}
		if enc, err := json.Marshal(e); err != nil || !bytes.Equal(enc, line) {
			t.Fatalf("framed entry differs from json.Marshal of the same entry (%v)", err)
		}
		fi, err := os.Stat(eventSidecar(path))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < e.EventBytes {
			t.Fatalf("entry %d written with event_bytes %d but the sidecar holds %d",
				len(images), e.EventBytes, fi.Size())
		}
		if err := write(pieces...); err != nil {
			return err
		}
		m, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := os.ReadFile(eventSidecar(path))
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, crashImage{m, s})
		return nil
	})
	if !bytes.Equal(live, want) {
		t.Fatal("checkpointed stream differs from the uninterrupted one")
	}
	if len(images) < 2 {
		t.Fatalf("%d snapshot writes, want at least 2", len(images))
	}

	for i, img := range images {
		ck := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
		torn := img.snapshot[:len(img.snapshot)/2]
		for name, data := range map[string][]byte{ck: img.snapshot, eventSidecar(ck): img.sidecar, ck + ".tmp": torn} {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got bytes.Buffer
		out, err := RunJob(context.Background(), spec, &RunJobOptions{EventWriter: &got, CheckpointPath: ck})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Result.Resumed {
			t.Fatalf("crash image %d did not resume", i)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("resume from entry %d: stream (%d bytes) differs from the uninterrupted one (%d bytes)",
				i, got.Len(), len(want))
		}
		if !bytes.Equal(out.Result.Summary, plain.Result.Summary) {
			t.Fatalf("resume from entry %d: summary differs from the uninterrupted one", i)
		}
		if i < len(images)-1 {
			if _, err := os.Stat(ck + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("resume from entry %d saved again but left the torn temp file (%v)", i, err)
			}
		}
	}
}

// A fork copies the parent's latest snapshot into the child's manifest
// without re-encoding it: the child's entry is byte-identical to
// json.Marshal of the parent's entry with event_bytes 0. A parent entry
// outside save's frame (here, with white space in the frame and in the
// snapshot) is refused.
func TestForkCopiesParentCheckpoint(t *testing.T) {
	spec, _ := checkpointedSpec(t, "hotspot", 4, 0.1)
	dir := t.TempDir()
	parentCk := filepath.Join(dir, "parent.ckpt.jsonl")
	if _, err := RunJob(context.Background(), spec,
		&RunJobOptions{EventWriter: io.Discard, CheckpointPath: parentCk}); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(parentCk)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(manifest, []byte("\n")), []byte("\n"))
	var e snapshotEntry
	if err := json.Unmarshal(lines[len(lines)-1], &e); err != nil {
		t.Fatal(err)
	}
	e.EventBytes = 0
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	fork := func() error {
		child := *spec
		childRun := *spec.Run
		child.Run = &childRun
		return PrepareForkJob(spec, &child, parentCk, filepath.Join(dir, "child.ckpt.jsonl"), "child")
	}
	if err := fork(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "child.ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	childLines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(childLines) != 2 || !bytes.Equal(childLines[1], want) {
		t.Fatal("child entry differs from json.Marshal of the parent's entry")
	}

	loose := bytes.Replace(manifest, []byte(`"event_bytes":`), []byte(`"event_bytes": `), -1)
	loose = bytes.Replace(loose, []byte(`"version":1,`), []byte(`"version": 1,`), -1)
	if err := os.WriteFile(parentCk, loose, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fork(); err == nil || !strings.Contains(err.Error(), "not a kernel snapshot") {
		t.Fatalf("fork from an entry outside save's frame: %v, want a refusal", err)
	}
}

// A checkpointed run canceled during a save stops at its next cut: it
// returns context.Canceled, and the snapshot file keeps the entry that save
// wrote, with nothing written after it, then or later.
func TestCanceledCheckpointedRunStopsAtNextCut(t *testing.T) {
	spec, _ := checkpointedSpec(t, "hotspot", 4, 0.1)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt.jsonl")
	rc, cfg, prog := openCheckpointer(t, spec, path, false)
	defer rc.close()
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writes := 0
	write := rc.writeEntry
	rc.writeEntry = func(pieces ...[]byte) error {
		writes++
		cancel()
		for !sys.inner.Kernel().Interrupted() {
			runtime.Gosched()
		}
		return write(pieces...)
	}
	_, err = RunCancelable(ctx, sys, func() (*Results, error) { return sys.RunCheckpointed(rc.every, rc.save) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v, want context.Canceled", err)
	}
	if writes != 1 {
		t.Fatalf("canceled run wrote %d snapshots, want only the one it was canceled in", writes)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events := sys.inner.Kernel().Events()
	time.Sleep(100 * time.Millisecond)
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, saved) {
		t.Fatalf("snapshot file changed after the canceled run returned (err %v)", err)
	}
	if n := sys.inner.Kernel().Events(); n != events {
		t.Fatalf("kernel ran %d events after the canceled run returned", n-events)
	}
	checkStateDir(t, dir, path, true)
}

// Opening a run's checkpoint removes the temp file a crash in the middle
// of a save left behind: a resumed run that takes no further cut would
// otherwise keep it forever.
func TestCheckpointerRemovesStaleTemp(t *testing.T) {
	spec, _ := checkpointedSpec(t, "hotspot", 4, 0.1)
	path := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
	if err := os.WriteFile(path+".tmp", []byte("torn snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	rc, _, _ := openCheckpointer(t, spec, path, false)
	rc.close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived opening the checkpoint: %v", err)
	}
}

// A fork of a parent that keeps saving copies a whole snapshot every time:
// the parent's file is replaced atomically, so the child's entry is always
// one of the parent's entries with event_bytes 0, never a mix of two.
func TestForkReadsWholeSnapshotsWhileParentSaves(t *testing.T) {
	spec, _ := checkpointedSpec(t, "hotspot", 4, 0.1)
	dir := t.TempDir()
	parentCk := filepath.Join(dir, "parent.ckpt.jsonl")
	var entries [][]byte
	runWithSnapshotHook(t, spec, parentCk, nil, func(write func(...[]byte) error, pieces ...[]byte) error {
		entries = append(entries, bytes.Join(pieces, nil))
		return write(pieces...)
	})
	if len(entries) < 2 {
		t.Fatalf("%d parent snapshots, want at least 2", len(entries))
	}
	want := make(map[string]bool)
	for _, e := range entries {
		cycle, _, raw, err := readEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		want[string(appendEntryHead(nil, cycle, 0))+string(raw)+"}"] = true
	}
	parentHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	child := *spec
	childRun := *spec.Run
	child.Run = &childRun
	childHash, err := child.Hash()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	saved := make(chan struct{})
	go func() {
		defer close(saved)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := runner.WriteSnapshot(parentCk, "parent", parentHash, entries[i%len(entries)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	childCk := filepath.Join(dir, "child.ckpt.jsonl")
	for i := 0; i < 50; i++ {
		if err := PrepareForkJob(spec, &child, parentCk, childCk, "child"); err != nil {
			t.Error(err)
			break
		}
		got, err := runner.ReadSnapshot(childCk, childHash)
		if err != nil || !want[string(got)] {
			t.Errorf("fork %d copied %d bytes that are none of the parent's snapshots (err %v)", i, len(got), err)
			break
		}
	}
	close(stop)
	<-saved
}

// A checkpoint file that does not hold exactly one snapshot for this spec —
// a header bound to another spec, two entry lines, a last line cut short —
// is not resumed from: the run recomputes to the uninterrupted stream, and
// its first save replaces the file with one whole snapshot.
func TestResumeRecomputesWithoutOneSnapshot(t *testing.T) {
	spec, want := checkpointedSpec(t, "hotspot", 4, 0.1)
	path := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
	if _, err := RunJob(context.Background(), spec,
		&RunJobOptions{EventWriter: io.Discard, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hdr, entry, _ := bytes.Cut(data, []byte("\n"))
	for name, file := range map[string][]byte{
		"foreign-spec":     append(bytes.Replace(hdr, []byte(hash), []byte("0000"), 1), append([]byte("\n"), entry...)...),
		"two-entries":      append(bytes.Clone(data), entry...),
		"no-final-newline": data[:len(data)-1],
	} {
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		out, err := RunJob(context.Background(), spec, &RunJobOptions{EventWriter: &got, CheckpointPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Resumed || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: resumed=%v, stream of %d bytes; want a recompute giving the %d uninterrupted bytes",
				name, out.Result.Resumed, got.Len(), len(want))
		}
		if e, err := runner.ReadSnapshot(path, hash); err != nil || e == nil {
			t.Fatalf("%s: the recompute left no whole snapshot (err %v)", name, err)
		}
	}
}

// readEntry reads save's frame, returning the checkpoint as the exact
// sub-slice between "checkpoint": and the final '}', and refuses every
// other line.
func TestReadEntryFrame(t *testing.T) {
	for _, tc := range []struct {
		line      string
		cycle     uint64
		eventByte int64
		ck        string // "" = refused
	}{
		{`{"cycle":12,"event_bytes":34,"checkpoint":{"a":[1,{"b":"}"}],"c":"\"{"}}`, 12, 34, `{"a":[1,{"b":"}"}],"c":"\"{"}`},
		{`{"cycle":0,"event_bytes":0,"checkpoint":{}}`, 0, 0, `{}`},
		{`{"cycle":18446744073709551615,"event_bytes":9223372036854775807,"checkpoint":{}}`,
			math.MaxUint64, math.MaxInt64, `{}`},
		// Bytes after the snapshot object stay in the checkpoint, where
		// core.DecodeCheckpoint refuses them.
		{`{"cycle":12,"event_bytes":34,"checkpoint":{"a":1},"extra":3}`, 12, 34, `{"a":1},"extra":3`},

		{line: `{"cycle": 12,"event_bytes":34,"checkpoint":{}}`},
		{line: `{ "cycle":12,"event_bytes":34,"checkpoint":{}}`},
		{line: `{"cycle":12,"event_bytes":34,"checkpoint": {}}`},
		{line: `{"cycle":12,"event_bytes":34,"checkpoint":{}} `},
		{line: `{"event_bytes":34,"cycle":12,"checkpoint":{}}`},
		{line: `{"cycle":12,"checkpoint":{},"event_bytes":34}`},
		{line: `{"cycle":12,"event_bytes":-1,"checkpoint":{}}`},
		{line: `{"cycle":1e1,"event_bytes":3,"checkpoint":{}}`},
		{line: `{"cycle":12,"event_bytes":3.0,"checkpoint":{}}`},
		{line: `{"cycle":012,"event_bytes":34,"checkpoint":{}}`},
		{line: `{"cycle":99999999999999999999,"event_bytes":34,"checkpoint":{}}`},
		{line: `{"cycle":12,"event_bytes":9223372036854775808,"checkpoint":{}}`},
		{line: `{"cycle":12,"event_bytes":34,"checkpoint":null}`},
		{line: `{"cycle":12,"event_bytes":34,"checkpoint":[1]}`},
		{line: `{"cycle":12,"event_bytes":34}`},
	} {
		cycle, n, ck, err := readEntry([]byte(tc.line))
		switch {
		case tc.ck == "":
			if err == nil {
				t.Errorf("%s: read as %d/%d/%s, want a refusal", tc.line, cycle, n, ck)
			}
		case err != nil || cycle != tc.cycle || n != tc.eventByte || string(ck) != tc.ck:
			t.Errorf("%s: read as %d/%d/%s (%v), want %d/%d/%s", tc.line, cycle, n, ck, err, tc.cycle, tc.eventByte, tc.ck)
		}
	}
}

// A manifest entry with bytes after its snapshot object passes readEntry,
// is refused by core.DecodeCheckpoint, and so makes a resume recompute from
// scratch: the job is not resumed and its stream is the uninterrupted one.
func TestResumeRecomputesPastTrailingBytes(t *testing.T) {
	spec, want := checkpointedSpec(t, "hotspot", 4, 0.1)
	path := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
	if _, err := RunJob(context.Background(), spec,
		&RunJobOptions{EventWriter: io.Discard, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(manifest[:len(manifest)-1], '\n') + 1
	if _, _, ck, err := readEntry(manifest[last : len(manifest)-1]); err != nil {
		t.Fatal(err)
	} else if _, err := core.DecodeCheckpoint(ck); err != nil {
		t.Fatalf("save's entry does not decode: %v", err)
	}
	edited := append(bytes.Clone(manifest[:len(manifest)-2]), `,"extra":3}`+"\n"...)
	_, _, ck, err := readEntry(edited[last : len(edited)-1])
	if err != nil {
		t.Fatalf("readEntry refused the edited entry: %v", err)
	}
	if _, err := core.DecodeCheckpoint(ck); err == nil {
		t.Fatal("DecodeCheckpoint accepted bytes after the snapshot object")
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	out, err := RunJob(context.Background(), spec, &RunJobOptions{EventWriter: &got, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Resumed || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("resumed=%v, stream of %d bytes; want a recompute giving the %d uninterrupted bytes",
			out.Result.Resumed, got.Len(), len(want))
	}
}

// A resume reports its outcome through Logf: the cycle it resumed at, or,
// for a manifest whose newest entry has white space in its head, that the
// run recomputes from scratch (and the job is then not resumed).
func TestResumeOutcomeReachesLogf(t *testing.T) {
	spec, _ := checkpointedSpec(t, "hotspot", 4, 0.1)
	path := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
	if _, err := RunJob(context.Background(), spec,
		&RunJobOptions{EventWriter: io.Discard, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	resume := func() (*JobOutput, []string) {
		var lines []string
		out, err := RunJob(context.Background(), spec, &RunJobOptions{
			EventWriter: io.Discard, CheckpointPath: path,
			Logf: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, lines
	}
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out, lines := resume()
	if !out.Result.Resumed || len(lines) != 1 || !strings.HasPrefix(lines[0], "resumed from the checkpoint at cycle ") {
		t.Fatalf("resume from save's entries: resumed=%v, Logf lines %q", out.Result.Resumed, lines)
	}

	last := bytes.LastIndexByte(manifest[:len(manifest)-1], '\n') + 1
	loose := append(bytes.Clone(manifest[:last]),
		bytes.Replace(manifest[last:], []byte(`"cycle":`), []byte(`"cycle": `), 1)...)
	if err := os.WriteFile(path, loose, 0o644); err != nil {
		t.Fatal(err)
	}
	out, lines = resume()
	if out.Result.Resumed || len(lines) != 1 || !strings.Contains(lines[0], "recomputing from scratch") {
		t.Fatalf("resume from an entry with white space in its head: resumed=%v, Logf lines %q",
			out.Result.Resumed, lines)
	}
}

// v1Fixture is a checkpoint file that a build writing kernel-checkpoint
// layout version 1 left for v1Spec: its one snapshot is hotspot 4p's cut at
// cycle 9278, with no event stream.
const v1Fixture = "testdata/v1-hotspot4p.ckpt.jsonl"

func v1Spec() *JobSpec {
	spec := NewJobSpec(JobKindRun)
	spec.Run = &RunSpec{App: "hotspot", Procs: 4, Scale: 0.05, Seed: 3,
		Machine: &MachineSpec{L1Size: 1024}, CheckpointEvery: 9274}
	return spec
}

// A stored checkpoint of layout version 1 is refused by its version, never
// as undecodable. A daemon resume and a tccsim rerun log the version,
// recompute to the uninterrupted summary and replace the file with a
// snapshot of this build's version; a fork of it fails naming the version
// and seeds no child file.
func TestV1CheckpointRefusedByVersion(t *testing.T) {
	spec := v1Spec()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if entry, err := runner.ReadSnapshot(v1Fixture, hash); err != nil || entry == nil {
		t.Fatalf("the fixture holds no snapshot bound to the spec (%v)", err)
	}
	plainSpec := *spec
	plainRun := *spec.Run
	plainRun.CheckpointEvery = 0
	plainSpec.Run = &plainRun
	plain, err := RunJob(context.Background(), &plainSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	refusal := fmt.Sprintf("checkpoint version 1, this build reads %d", core.KernelCheckpointVersion)
	fixtureCopy := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
		if err := os.WriteFile(path, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	recomputed := func(t *testing.T, path string, logged []string, res *JobResult) {
		t.Helper()
		if len(logged) != 1 || !strings.Contains(logged[0], refusal) || !strings.Contains(logged[0], "recomputing from scratch") {
			t.Fatalf("logged %q, want one line naming %q", logged, refusal)
		}
		if res.Resumed || !bytes.Equal(res.Summary, plain.Result.Summary) {
			t.Fatalf("resumed=%v, summary equal %v", res.Resumed, bytes.Equal(res.Summary, plain.Result.Summary))
		}
		entry, err := runner.ReadSnapshot(path, hash)
		if err != nil || entry == nil {
			t.Fatalf("no snapshot after the rerun (%v)", err)
		}
		if _, _, raw, err := readEntry(entry); err != nil || core.CheckVersion(raw) != nil {
			t.Fatalf("the rerun left a snapshot this build refuses (%v)", err)
		}
	}
	t.Run("daemon resume", func(t *testing.T) {
		var logged []string
		jc := runner.NewJobContext()
		jc.ID, jc.CheckpointPath = "j000001", fixtureCopy(t)
		jc.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		res, err := ExecuteJob(context.Background(), spec, jc)
		if err != nil {
			t.Fatal(err)
		}
		recomputed(t, jc.CheckpointPath, logged, res)
	})
	t.Run("tccsim rerun", func(t *testing.T) {
		var logged []string
		path := fixtureCopy(t)
		out, err := RunJob(context.Background(), spec, &RunJobOptions{CheckpointPath: path,
			Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }})
		if err != nil {
			t.Fatal(err)
		}
		recomputed(t, path, logged, out.Result)
	})
	t.Run("fork", func(t *testing.T) {
		child := *spec
		childCk := filepath.Join(t.TempDir(), "child.ckpt.jsonl")
		if err := PrepareForkJob(spec, &child, fixtureCopy(t), childCk, "child"); err == nil || !strings.Contains(err.Error(), refusal) {
			t.Fatalf("fork of a version-1 snapshot: %v, want an error naming %q", err, refusal)
		}
		if _, err := os.Stat(childCk); !os.IsNotExist(err) {
			t.Fatalf("a refused fork seeded the child's file (%v)", err)
		}
	})
}
