package tcc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

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
		var e runCheckpointEntry
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
// snapshot) takes the json.Unmarshal path and ends up identical too.
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
	loose := bytes.Replace(manifest, []byte(`"event_bytes":`), []byte(`"event_bytes": `), -1)
	loose = bytes.Replace(loose, []byte(`"version":1,`), []byte(`"version": 1,`), -1)
	for name, m := range map[string][]byte{"save's frame": manifest, "loose frame": loose} {
		if err := os.WriteFile(parentCk, m, 0o644); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(m, []byte("\n")), []byte("\n"))
		var e runCheckpointEntry
		if err := json.Unmarshal(lines[len(lines)-1], &e); err != nil {
			t.Fatal(err)
		}
		e.EventBytes = 0
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}

		child := *spec
		childRun := *spec.Run
		child.Run = &childRun
		childCk := filepath.Join(dir, "child.ckpt.jsonl")
		if err := PrepareForkJob(spec, &child, parentCk, childCk, "child"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(childCk)
		if err != nil {
			t.Fatal(err)
		}
		childLines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
		if len(childLines) != 2 || !bytes.Equal(childLines[1], want) {
			t.Fatalf("%s: child entry differs from json.Marshal of the parent's entry", name)
		}
	}
}

// readEntry agrees with json.Unmarshal of the entry followed by json.Marshal
// of its checkpoint, on save's frame and on every way out of it.
func TestReadEntryMatchesUnmarshal(t *testing.T) {
	for _, line := range []string{
		`{"cycle":12,"event_bytes":34,"checkpoint":{"a":[1,{"b":"}"}],"c":"\"{"}}`,
		`{"cycle":0,"event_bytes":0,"checkpoint":{}}`,
		`{"cycle": 12,"event_bytes":34,"checkpoint":{}}`,
		`{"cycle":12,"event_bytes":34,"checkpoint":{ "a":1}}`,
		`{"cycle":12,"event_bytes":34,"checkpoint":{"a":"<b>"}}`,
		`{"cycle":12,"event_bytes":34,"checkpoint":{"a":"é"}}`,
		`{"cycle":12,"event_bytes":34,"checkpoint":{"a":1},"checkpoint":{"b":2}}`,
		`{"cycle":12,"event_bytes":34,"checkpoint":{"a":1},"extra":3}`,
		`{"cycle":12,"event_bytes":-1,"checkpoint":{}}`,
		`{"cycle":1e1,"event_bytes":3,"checkpoint":{}}`,
		`{"event_bytes":34,"cycle":12,"checkpoint":{}}`,
		`{"cycle":12,"event_bytes":34,"checkpoint":null}`,
		`{"cycle":12,"event_bytes":34,"checkpoint":[1]}`,
		`{"cycle":12,"event_bytes":34}`,
		`{"cycle":99999999999999999999,"event_bytes":34,"checkpoint":{}}`,
		`{"cycle":12,"event_bytes":9223372036854775808,"checkpoint":{}}`,
	} {
		var e runCheckpointEntry
		wantErr := json.Unmarshal([]byte(line), &e)
		var wantCk []byte
		if wantErr == nil && len(e.Checkpoint) > 0 {
			wantCk, _ = json.Marshal(e.Checkpoint)
		}
		cycle, n, ck, err := readEntry([]byte(line))
		switch {
		case wantCk == nil:
			if err == nil {
				t.Errorf("%s: read as %d/%d/%s, json.Unmarshal finds no snapshot", line, cycle, n, ck)
			}
		case err != nil || cycle != e.Cycle || n != e.EventBytes || !bytes.Equal(ck, wantCk):
			t.Errorf("%s: read as %d/%d/%s (%v), want %d/%d/%s", line, cycle, n, ck, err, e.Cycle, e.EventBytes, wantCk)
		}
	}
}
