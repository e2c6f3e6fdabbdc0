package scalabletcc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

// These tests cover the run-job checkpoint stack end to end: a checkpointed
// run interrupted by a queue shutdown (or a SIGKILL of a real tccd process)
// resumes into byte-identical results and event stream, and a finished run
// forks into a child that reproduces the parent's remaining suffix.

// ckptManifestEntry reads the head of one run-checkpoint manifest line,
// {"cycle":N,"event_bytes":M,"checkpoint":{…}}, for test-side inspection.
type ckptManifestEntry struct {
	Cycle      uint64 `json:"cycle"`
	EventBytes int64  `json:"event_bytes"`
}

// runReference executes spec directly (no checkpointing) and returns its
// output plus the captured event stream.
func runReference(t *testing.T, spec *runner.JobSpec) (*tcc.JobOutput, []byte) {
	t.Helper()
	var stream bytes.Buffer
	out, err := tcc.RunJob(context.Background(), spec, &tcc.RunJobOptions{EventWriter: &stream})
	if err != nil {
		t.Fatal(err)
	}
	return out, stream.Bytes()
}

// checkpointedHotspot returns a run spec checkpointing a few times over its
// lifetime: the reference run measures the cycle count, and every is set to
// a third of it.
func checkpointedHotspot(t *testing.T, scale float64) (*runner.JobSpec, *tcc.JobOutput, []byte) {
	t.Helper()
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = &tcc.RunSpec{App: "hotspot", Procs: 4, Scale: scale, Seed: 2, Verify: true}
	ref, refStream := runReference(t, spec)
	spec.Run.CheckpointEvery = uint64(ref.Proto.Scalable.Cycles) / 3
	if spec.Run.CheckpointEvery == 0 {
		t.Fatalf("reference run too short to checkpoint (%d cycles)", ref.Proto.Scalable.Cycles)
	}
	return spec, ref, refStream
}

// waitManifestGrowth polls until the job's checkpoint manifest holds at
// least one snapshot entry beyond the header, failing if the job retires
// first (it could then no longer be interrupted mid-run).
func waitManifestGrowth(t *testing.T, path string, status func() (state string, ok bool)) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if data, err := os.ReadFile(path); err == nil && bytes.Count(data, []byte("\n")) >= 2 {
			return
		}
		if state, ok := status(); ok && state != runner.StateQueued && state != runner.StateRunning {
			t.Fatalf("run finished (%s) before it could be interrupted; enlarge the workload", state)
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint manifest never grew a snapshot entry")
		}
		time.Sleep(time.Millisecond)
	}
}

func compactEqual(t *testing.T, got, want json.RawMessage, what string) {
	t.Helper()
	var g, w bytes.Buffer
	if err := json.Compact(&g, got); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&w, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s diverged:\n  got  %s\n  want %s", what, g.Bytes(), w.Bytes())
	}
}

// TestDaemonRestartResumesRun is the run-job restart-resume acceptance
// check: a checkpointed run interrupted by a queue shutdown mid-simulation
// is recovered by a new queue over the same state directory, resumes from
// its latest kernel snapshot, and produces the byte-identical summary and
// event stream an uninterrupted run produces.
func TestDaemonRestartResumesRun(t *testing.T) {
	spec, ref, refStream := checkpointedHotspot(t, 0.25)

	dir := t.TempDir()
	q1 := runner.NewQueue(runner.Config{
		Capacity: 4, Workers: 1, StateDir: dir, Validate: tcc.ValidateJobSpec,
	}, tcc.ExecuteJob)
	st, err := q1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, st.ID+".ckpt.jsonl")
	waitManifestGrowth(t, ckpt, func() (string, bool) {
		cur, ok := q1.Status(st.ID)
		if !ok {
			return "", false
		}
		return cur.State, true
	})
	q1.Shutdown()
	if _, err := os.Stat(filepath.Join(dir, st.ID+".outcome.json")); err == nil {
		t.Fatal("interrupted job must not persist an outcome")
	}

	q2 := runner.NewQueue(runner.Config{
		Capacity: 4, Workers: 1, StateDir: dir, Validate: tcc.ValidateJobSpec,
	}, tcc.ExecuteJob)
	srv := httptest.NewServer(runner.NewServer(q2))
	defer srv.Close()
	defer q2.Shutdown()
	recovered, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != st.ID {
		t.Fatalf("recovered %v, want [%s]", recovered, st.ID)
	}

	got := waitTerminal(t, q2, st.ID)
	if got.State != runner.StateDone {
		t.Fatalf("resumed run retired as %q (%s)", got.State, got.Error)
	}
	res, _, _ := q2.Result(st.ID)
	if res == nil || !res.Resumed {
		t.Fatalf("resumed run result %+v", res)
	}
	if res.Serializable == nil || !*res.Serializable {
		t.Fatalf("resumed run not serializable: %+v", res)
	}
	compactEqual(t, res.Summary, ref.Result.Summary, "resumed summary")

	jsonl, state := collectSSE(t, srv.URL, st.ID)
	if state != runner.StateDone {
		t.Fatalf("done frame reports state %q", state)
	}
	if !bytes.Equal(jsonl, refStream) {
		t.Fatalf("resumed event stream diverged from uninterrupted reference: %d vs %d bytes",
			len(jsonl), len(refStream))
	}
}

// TestDaemonForkRun forks a finished checkpointed run over HTTP: a child
// with unchanged knobs must reproduce the parent's summary and the suffix
// of its event stream past the forked snapshot byte-identically (preceded
// by its own stream header); illegal edits and unknown parents are
// rejected.
func TestDaemonForkRun(t *testing.T) {
	spec, _, _ := checkpointedHotspot(t, 0.1)
	// One snapshot at ~2/3 of the run: a final cut can land after the last
	// emitted event, and forking wants a strictly interior one so the child
	// has a non-trivial suffix to reproduce.
	spec.Run.CheckpointEvery *= 2

	stateDir := t.TempDir()
	q, srv := newDaemon(t, runner.Config{
		Capacity: 4, Workers: 1, StateDir: stateDir, ForkPrep: tcc.PrepareForkJob,
	})
	st, code := postSpec(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	parentStream, _ := collectSSE(t, srv.URL, st.ID)
	if waitTerminal(t, q, st.ID).State != runner.StateDone {
		t.Fatal("parent did not finish")
	}
	parentRes, _, _ := q.Result(st.ID)

	// The fork point is the parent's last snapshot: its event_bytes offset
	// splits the parent stream into the prefix the child skips and the
	// suffix it must reproduce.
	data, err := os.ReadFile(filepath.Join(stateDir, st.ID+".ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("parent manifest has no snapshot entries (%d lines)", len(lines))
	}
	var last ckptManifestEntry
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.EventBytes <= 0 || last.EventBytes >= int64(len(parentStream)) {
		t.Fatalf("fork cut %d outside parent stream (%d bytes)", last.EventBytes, len(parentStream))
	}

	fork := func(child *runner.JobSpec) (*runner.JobStatus, int) {
		t.Helper()
		body, err := child.Encode()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/jobs/"+st.ID+"/fork", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return nil, resp.StatusCode
		}
		var cst runner.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cst); err != nil {
			t.Fatal(err)
		}
		return &cst, resp.StatusCode
	}

	// Unchanged knobs: the child replays the parent's remaining suffix.
	child := *spec
	run := *spec.Run
	child.Run = &run
	cst, code := fork(&child)
	if code != http.StatusAccepted {
		t.Fatalf("fork: %d", code)
	}
	if cst.ForkedFrom != st.ID {
		t.Fatalf("child forked_from %q, want %q", cst.ForkedFrom, st.ID)
	}
	childStream, _ := collectSSE(t, srv.URL, cst.ID)
	if waitTerminal(t, q, cst.ID).State != runner.StateDone {
		t.Fatal("child did not finish")
	}
	childRes, _, _ := q.Result(cst.ID)
	if childRes == nil || !childRes.Resumed {
		t.Fatalf("forked child result %+v", childRes)
	}
	compactEqual(t, childRes.Summary, parentRes.Summary, "forked child summary")

	header := parentStream[:bytes.IndexByte(parentStream, '\n')+1]
	want := append(append([]byte(nil), header...), parentStream[last.EventBytes:]...)
	if !bytes.Equal(childStream, want) {
		t.Fatalf("forked child stream is not header + parent suffix: %d vs %d bytes",
			len(childStream), len(want))
	}

	// A changed seed invalidates the snapshot: rejected at admission.
	bad := *spec
	badRun := *spec.Run
	badRun.Seed = 99
	bad.Run = &badRun
	if _, code := fork(&bad); code != http.StatusBadRequest {
		t.Fatalf("illegal fork edit: %d, want 400", code)
	}

	// An edited timing knob from the whitelist is legal and runs to done.
	edited := *spec
	editedRun := *spec.Run
	editedRun.Machine = &runner.MachineSpec{MemLatency: 150}
	edited.Run = &editedRun
	est, code := fork(&edited)
	if code != http.StatusAccepted {
		t.Fatalf("legal fork edit: %d", code)
	}
	if waitTerminal(t, q, est.ID).State != runner.StateDone {
		t.Fatal("edited child did not finish")
	}

	// Unknown parent.
	body, _ := child.Encode()
	resp, err := http.Post(srv.URL+"/v1/jobs/zzz/fork", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fork of unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestDaemonForkRefusesV1Parent: a fork of a job whose checkpoint file
// holds a snapshot of kernel-checkpoint layout version 1 (a file an older
// build left for the same spec) answers 400 naming the version.
func TestDaemonForkRefusesV1Parent(t *testing.T) {
	fixture, err := os.ReadFile("tcc/testdata/v1-hotspot4p.ckpt.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = &tcc.RunSpec{App: "hotspot", Procs: 4, Scale: 0.05, Seed: 3,
		Machine: &runner.MachineSpec{L1Size: 1024}, CheckpointEvery: 9274}
	stateDir := t.TempDir()
	q, srv := newDaemon(t, runner.Config{
		Capacity: 4, Workers: 1, StateDir: stateDir, ForkPrep: tcc.PrepareForkJob,
	})
	st, code := postSpec(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if waitTerminal(t, q, st.ID).State != runner.StateDone {
		t.Fatal("parent did not finish")
	}
	if err := os.WriteFile(filepath.Join(stateDir, st.ID+".ckpt.jsonl"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	body, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs/"+st.ID+"/fork", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("checkpoint version 1, this build reads")) {
		t.Fatalf("fork of a version-1 parent: %d %s, want 400 naming the version", resp.StatusCode, msg)
	}
}

// TestDaemonKillResumeRun is the kill-and-resume smoke: a real tccd process
// is SIGKILLed mid-run — no graceful shutdown, no deferred cleanup — and a
// restarted daemon over the same state directory must finish the job with
// the byte-identical summary and event stream of an uninterrupted run.
func TestDaemonKillResumeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a tccd subprocess; run without -short")
	}
	spec, ref, refStream := checkpointedHotspot(t, 0.25)

	dir := t.TempDir()
	bin := filepath.Join(dir, "tccd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/tccd").CombinedOutput(); err != nil {
		t.Fatalf("build tccd: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	state := filepath.Join(dir, "state")
	base := "http://" + addr

	start := func() *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bin, "-addr", addr, "-state", state)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				return cmd
			}
			if time.Now().After(deadline) {
				t.Fatal("tccd never answered /healthz")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	cmd := start()
	body, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st runner.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" {
		t.Fatal("submit returned no job id")
	}

	waitManifestGrowth(t, filepath.Join(state, st.ID+".ckpt.jsonl"), func() (string, bool) {
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return "", false
		}
		defer resp.Body.Close()
		var cur runner.JobStatus
		if json.NewDecoder(resp.Body).Decode(&cur) != nil {
			return "", false
		}
		return cur.State, true
	})
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd = start()
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	var res struct {
		Status *runner.JobStatus `json:"status"`
		Result *runner.JobResult `json:"result"`
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("resumed job never reached a terminal state")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if res.Status.State != runner.StateDone {
		t.Fatalf("resumed job retired as %q (%s)", res.Status.State, res.Status.Error)
	}
	if !res.Result.Resumed {
		t.Fatal("killed-and-restarted run must be marked resumed")
	}
	if res.Result.Serializable == nil || !*res.Result.Serializable {
		t.Fatalf("resumed run not serializable: %+v", res.Result)
	}
	compactEqual(t, res.Result.Summary, ref.Result.Summary, "resumed summary")

	jsonl, state2 := collectSSE(t, base, st.ID)
	if state2 != runner.StateDone {
		t.Fatalf("done frame reports state %q", state2)
	}
	if !bytes.Equal(jsonl, refStream) {
		t.Fatalf("resumed event stream diverged from uninterrupted reference: %d vs %d bytes",
			len(jsonl), len(refStream))
	}
}

// TestDaemonLoadManySmallJobs floods the daemon with concurrent small run
// jobs through the HTTP API — the load profile the queue and worker-pool
// defaults are sized for. Every job must be accepted (retrying on 429
// backpressure) and retire done.
func TestDaemonLoadManySmallJobs(t *testing.T) {
	jobs, submitters := 2000, 64
	if testing.Short() {
		jobs = 200
	}
	q, srv := newDaemon(t, runner.Config{Capacity: 64, Workers: 4})

	var mu sync.Mutex
	var ids []string
	var retries int
	var wg sync.WaitGroup
	startAt := time.Now()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < jobs; i += submitters {
				spec := tcc.NewJobSpec(tcc.JobKindRun)
				spec.Run = &tcc.RunSpec{App: "hotspot", Procs: 1, Scale: 0.02, Seed: uint64(i + 1)}
				body, err := spec.Encode()
				if err != nil {
					t.Error(err)
					return
				}
				for {
					resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						resp.Body.Close()
						mu.Lock()
						retries++
						mu.Unlock()
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusAccepted {
						resp.Body.Close()
						t.Errorf("submit %d: %d", i, resp.StatusCode)
						return
					}
					var st runner.JobStatus
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					ids = append(ids, st.ID)
					mu.Unlock()
					break
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(ids) != jobs {
		t.Fatalf("submitted %d jobs, want %d", len(ids), jobs)
	}

	deadline := time.Now().Add(4 * time.Minute)
	pending := make(map[string]bool, len(ids))
	for _, id := range ids {
		pending[id] = true
	}
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs never retired", len(pending), jobs)
		}
		for id := range pending {
			st, ok := q.Status(id)
			if !ok {
				t.Fatalf("job %s vanished", id)
			}
			switch st.State {
			case runner.StateQueued, runner.StateRunning:
			case runner.StateDone:
				delete(pending, id)
			default:
				t.Fatalf("job %s retired as %q (%s)", id, st.State, st.Error)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("%d jobs through %d submitters in %v (%d backpressure retries)",
		jobs, submitters, time.Since(startAt).Round(time.Millisecond), retries)
}
