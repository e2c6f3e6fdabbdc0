package tcc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// manifestEntry is the reference encoding of a run job's manifest entry:
// save's frame is json.Marshal of it.
type manifestEntry struct {
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

// The event encoder's contract end to end: a checkpointed, verified job's
// stream is byte-identical to json.Marshal of the same events.
func TestCheckpointedStreamMatchesMarshal(t *testing.T) {
	spec, _ := checkpointedSpec(t, "barnes", 8, 0.02)
	path := filepath.Join(t.TempDir(), "run.ckpt.jsonl")
	ref := &marshalObserver{}
	var live bytes.Buffer
	out, err := RunJob(context.Background(), spec,
		&RunJobOptions{EventWriter: &live, Observer: ref, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if s := out.Result.Serializable; s == nil || !*s {
		t.Fatal("checkpointed run failed the serializability oracle")
	}
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(manifest, []byte("\n")) - 1; n < 2 {
		t.Fatalf("manifest holds %d snapshots, want at least 2", n)
	}
	want := append([]byte(streamHeaderLine), ref.buf.Bytes()...)
	if !bytes.Equal(live.Bytes(), want) {
		t.Fatalf("stream (%d bytes) differs from json.Marshal lines (%d bytes)", live.Len(), len(want))
	}
}

// At the instant each manifest entry is appended, the sidecar on disk must
// already hold the entry's event_bytes; a resume from the files as they
// stand right after each append (a crash image) must reproduce the
// uninterrupted stream byte for byte.
func TestSidecarCoversEveryManifestEntry(t *testing.T) {
	spec, want := checkpointedSpec(t, "hotspot", 4, 0.1)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt.jsonl")
	jc := runner.NewJobContext()
	jc.ID, jc.CheckpointPath = "run", path
	cfg := runConfig(spec.Run)
	prof, err := ProfileByNameErr(spec.Run.App)
	if err != nil {
		t.Fatal(err)
	}
	prog := prof.Scale(spec.Run.Scale).Build(spec.Run.Procs, cfg.Seed)

	rc, err := newRunCheckpointer(spec, cfg, prog, jc, true)
	if err != nil {
		t.Fatal(err)
	}
	type crashImage struct{ manifest, sidecar []byte }
	var images []crashImage
	durable := rc.appendEntry
	rc.appendEntry = func(pieces ...[]byte) error {
		line := bytes.Join(pieces, nil)
		var e manifestEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("manifest entry is not JSON: %v", err)
		}
		if enc, err := json.Marshal(e); err != nil || !bytes.Equal(enc, line) {
			t.Fatalf("framed entry differs from json.Marshal of the same entry (%v)", err)
		}
		fi, err := os.Stat(eventSidecar(path))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < e.EventBytes {
			t.Fatalf("entry %d appended with event_bytes %d but the sidecar holds %d",
				len(images), e.EventBytes, fi.Size())
		}
		if err := durable(pieces...); err != nil {
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
	}
	var live bytes.Buffer
	stream, err := rc.stream(&live)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys.Observe(stream)
	if _, err := sys.RunCheckpointed(rc.every, rc.save); err != nil {
		t.Fatal(err)
	}
	// executeRun flushes the stream's last block when the run ends.
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	rc.close()
	if !bytes.Equal(live.Bytes(), want) {
		t.Fatal("checkpointed stream differs from the uninterrupted one")
	}
	if len(images) < 2 {
		t.Fatalf("%d manifest entries, want at least 2", len(images))
	}

	for i, img := range images {
		resumeDir := t.TempDir()
		ck := filepath.Join(resumeDir, "run.ckpt.jsonl")
		if err := os.WriteFile(ck, img.manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventSidecar(ck), img.sidecar, 0o644); err != nil {
			t.Fatal(err)
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
	var e manifestEntry
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
