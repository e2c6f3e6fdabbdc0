package scalabletcc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	_ "scalabletcc/internal/experiments" // registers the "sweep" job kind
	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

// These tests drive the real daemon stack — runner.NewServer over a queue
// executing tcc.ExecuteJob — the same wiring cmd/tccd assembles. The runner
// package's own tests use stub executors; here the simulator is real, so the
// end-to-end contracts hold: SSE reconstructs the exact event stream a CLI
// run writes, and a sweep interrupted by a daemon restart resumes from its
// checkpoint file into the byte-identical report.

func newDaemon(t *testing.T, cfg runner.Config) (*runner.Queue, *httptest.Server) {
	t.Helper()
	if cfg.Validate == nil {
		cfg.Validate = tcc.ValidateJobSpec
	}
	q := runner.NewQueue(cfg, tcc.ExecuteJob)
	srv := httptest.NewServer(runner.NewServer(q))
	t.Cleanup(func() {
		srv.Close()
		q.Shutdown()
	})
	return q, srv
}

func postSpec(t *testing.T, srv *httptest.Server, spec *runner.JobSpec) (*runner.JobStatus, int) {
	t.Helper()
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode
	}
	var st runner.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st, resp.StatusCode
}

// collectSSE reads the job's full SSE stream and reconstructs the
// scalabletcc/events v1 JSONL bytes from the data frames, returning them
// alongside the terminal state announced by the done frame.
func collectSSE(t *testing.T, base, id string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var jsonl bytes.Buffer
	var state string
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			done = true
		case strings.HasPrefix(line, "data: "):
			payload := strings.TrimPrefix(line, "data: ")
			if done {
				var d struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(payload), &d); err != nil {
					t.Fatalf("done frame %q: %v", payload, err)
				}
				state = d.State
				continue
			}
			jsonl.WriteString(payload)
			jsonl.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("SSE stream ended without a done frame")
	}
	return jsonl.Bytes(), state
}

func waitTerminal(t *testing.T, q *runner.Queue, id string) *runner.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := q.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.State {
		case runner.StateQueued, runner.StateRunning:
			time.Sleep(5 * time.Millisecond)
		default:
			return st
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func runSpecHotspot() *runner.JobSpec {
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = &tcc.RunSpec{App: "hotspot", Procs: 4, Scale: 0.1, Seed: 2}
	return spec
}

// TestDaemonLifecycle walks the full client path — submit, poll, stream,
// result — and requires the SSE-reconstructed event stream to be
// byte-identical to what a direct tcc.RunJob of the same spec writes (the
// bytes tccsim -trace-json emits).
func TestDaemonLifecycle(t *testing.T) {
	q, srv := newDaemon(t, runner.Config{Capacity: 4, Workers: 1})

	st, code := postSpec(t, srv, runSpecHotspot())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if st.Kind != runner.KindRun || st.ID == "" {
		t.Fatalf("submit status %+v", st)
	}

	jsonl, state := collectSSE(t, srv.URL, st.ID)
	if state != runner.StateDone {
		t.Fatalf("done frame reports state %q", state)
	}
	waitTerminal(t, q, st.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	var res struct {
		Status *runner.JobStatus `json:"status"`
		Result *runner.JobResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Status.State != runner.StateDone || res.Result == nil || len(res.Result.Summary) == 0 {
		t.Fatalf("result payload %+v / %+v", res.Status, res.Result)
	}

	var direct bytes.Buffer
	out, err := tcc.RunJob(context.Background(), runSpecHotspot(), &tcc.RunJobOptions{EventWriter: &direct})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl, direct.Bytes()) {
		t.Fatalf("SSE stream diverged from direct run: %d vs %d bytes", len(jsonl), direct.Len())
	}
	// The HTTP layer re-indents the result envelope, so compare the summary
	// documents compacted rather than byte-for-byte.
	var daemonSum, directSum bytes.Buffer
	if err := json.Compact(&daemonSum, res.Result.Summary); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&directSum, out.Result.Summary); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(daemonSum.Bytes(), directSum.Bytes()) {
		t.Fatalf("daemon summary %s\n  direct %s", daemonSum.Bytes(), directSum.Bytes())
	}
}

// readSSE returns the raw bytes of a job's SSE stream, read to its end.
func readSSE(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDaemonSpilledStreamReplays requires the SSE stream of a finished job,
// whose event log the queue has spilled to <id>.events.jsonl, to be
// byte-identical to the stream a subscriber attached before the job started
// received live.
func TestDaemonSpilledStreamReplays(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	exec := func(ctx context.Context, spec *runner.JobSpec, jc *runner.JobContext) (*runner.JobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return tcc.ExecuteJob(ctx, spec, jc)
	}
	q := runner.NewQueue(runner.Config{Capacity: 4, Workers: 1, StateDir: dir, Validate: tcc.ValidateJobSpec}, exec)
	srv := httptest.NewServer(runner.NewServer(q))
	t.Cleanup(func() {
		srv.Close()
		q.Shutdown()
	})

	st, code := postSpec(t, srv, runSpecHotspot())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	close(release) // the subscriber is attached before the first event
	live := readSSE(t, resp)
	if got := waitTerminal(t, q, st.ID); got.State != runner.StateDone {
		t.Fatalf("job retired as %q (%s)", got.State, got.Error)
	}

	spilled, err := os.ReadFile(filepath.Join(dir, st.ID+".events.jsonl"))
	if err != nil {
		t.Fatalf("finished job's event log was not spilled: %v", err)
	}
	var want bytes.Buffer
	for _, line := range bytes.SplitAfter(spilled, []byte("\n")) {
		if len(line) > 0 {
			fmt.Fprintf(&want, "data: %s\n", line)
		}
	}
	want.WriteString("event: done\ndata: {\"k\":\"job-done\",\"state\":\"done\"}\n\n")
	if !bytes.Equal(live, want.Bytes()) {
		t.Fatalf("live SSE (%d bytes) does not frame the spilled log (%d bytes)", len(live), len(spilled))
	}
	if cur, _ := q.Status(st.ID); cur.EventBytes != len(spilled) {
		t.Fatalf("status reports %d event bytes, spill file holds %d", cur.EventBytes, len(spilled))
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if replay := readSSE(t, resp); !bytes.Equal(replay, live) {
		t.Fatalf("SSE of the spilled job (%d bytes) differs from the live stream (%d bytes)", len(replay), len(live))
	}
}

// TestDaemonCancel cancels a sweep over HTTP and requires it to retire as
// canceled (a sweep yields at cell boundaries, so cancellation lands whether
// the job was still queued or already running).
func TestDaemonCancel(t *testing.T) {
	q, srv := newDaemon(t, runner.Config{Capacity: 4, Workers: 1})

	spec := tcc.NewJobSpec(tcc.JobKindSweep)
	spec.Sweep = &tcc.SweepSpec{
		Experiments: []string{"protocols"},
		Apps:        []string{"hotspot", "commitbound"},
		Protocols:   []string{"tcc", "tl2"},
		Procs:       []int{1, 2, 4},
		Scale:       0.1,
		Seed:        3,
		Parallel:    1,
	}
	st, code := postSpec(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if got := waitTerminal(t, q, st.ID); got.State != runner.StateCanceled {
		t.Fatalf("canceled job retired as %q (%s)", got.State, got.Error)
	}
}

// TestDaemonRestartResumesSweep is the restart-resume acceptance check: a
// sweep job interrupted by a queue shutdown mid-run is recovered by a new
// queue over the same state directory, resumes from its checkpoint file,
// and produces the byte-identical bench-sweep v2 report an uninterrupted run
// produces.
func TestDaemonRestartResumesSweep(t *testing.T) {
	spec := tcc.NewJobSpec(tcc.JobKindSweep)
	spec.Sweep = &tcc.SweepSpec{
		Experiments: []string{"protocols"},
		Apps:        []string{"hotspot", "commitbound"},
		Protocols:   []string{"tcc", "tl2"},
		Procs:       []int{1, 2, 4},
		Scale:       0.1,
		Seed:        3,
		Parallel:    1,
	}

	ref, err := tcc.RunJob(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Result.Cells == 0 || len(ref.Result.Report) == 0 {
		t.Fatalf("reference sweep: %d cells, %d report bytes", ref.Result.Cells, len(ref.Result.Report))
	}

	dir := t.TempDir()
	q1 := runner.NewQueue(runner.Config{
		Capacity: 4, Workers: 1, StateDir: dir, Validate: tcc.ValidateJobSpec,
	}, tcc.ExecuteJob)
	st, err := q1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the checkpoint file to hold a couple of completed cells,
	// then pull the plug. (If the sweep somehow outruns the poll, the resume leg
	// below degrades to recovering a queued-but-done job, which Recover
	// skips; guard against that by requiring an interruption.)
	ckpt := filepath.Join(dir, st.ID+".ckpt.jsonl")
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var cells []json.RawMessage
		if line, err := runner.ReadSnapshot(ckpt, hash); err == nil && json.Unmarshal(line, &cells) == nil && len(cells) >= 2 {
			break
		}
		if cur, _ := q1.Status(st.ID); cur != nil && cur.State != runner.StateQueued && cur.State != runner.StateRunning {
			t.Fatalf("sweep finished (%s) before it could be interrupted; enlarge the matrix", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint file never held two cells")
		}
		time.Sleep(time.Millisecond)
	}
	q1.Shutdown()
	if _, err := os.Stat(filepath.Join(dir, st.ID+".outcome.json")); err == nil {
		t.Fatalf("interrupted job must not persist an outcome")
	}

	q2 := runner.NewQueue(runner.Config{
		Capacity: 4, Workers: 1, StateDir: dir, Validate: tcc.ValidateJobSpec,
	}, tcc.ExecuteJob)
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
		t.Fatalf("resumed sweep retired as %q (%s)", got.State, got.Error)
	}
	if !got.Resumed {
		t.Fatal("recovered job must be marked resumed")
	}
	res, _, _ := q2.Result(st.ID)
	if res == nil || !res.Resumed {
		t.Fatalf("resumed sweep result %+v", res)
	}
	if res.Cells != ref.Result.Cells {
		t.Fatalf("resumed %d cells, reference %d", res.Cells, ref.Result.Cells)
	}
	if !bytes.Equal(res.Report, ref.Result.Report) {
		t.Fatalf("resumed report differs from uninterrupted reference:\n--- reference\n%s\n--- resumed\n%s",
			ref.Result.Report, res.Report)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".outcome.json")); err != nil {
		t.Fatalf("finished job must persist its outcome: %v", err)
	}
}

// TestDaemonRecoverRefusesRetiredSweep: a sweep stored before the timed
// experiments were retired fails at recovery with the reason persisted, and
// the stored job after it still resumes.
func TestDaemonRecoverRefusesRetiredSweep(t *testing.T) {
	dir := t.TempDir()
	specs := map[string]string{
		"j000001": `{"schema":"scalabletcc/job","version":1,"kind":"sweep",
			"sweep":{"experiments":["scaling","hotpath"],"procs":[1,2],"shards":[1,2],"scale":0.02}}`,
		"j000002": `{"schema":"scalabletcc/job","version":1,"kind":"sweep",
			"sweep":{"experiments":["fig6"],"apps":["hotspot"],"scale":0.02}}`,
	}
	for id, spec := range specs {
		if err := os.WriteFile(filepath.Join(dir, id+".spec.json"), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q := runner.NewQueue(runner.Config{
		Capacity: 4, Workers: 1, StateDir: dir, Validate: tcc.ValidateJobSpec,
	}, tcc.ExecuteJob)
	defer q.Shutdown()
	recovered, err := q.Recover()
	if len(recovered) != 1 || recovered[0] != "j000002" {
		t.Fatalf("recovered %v, want [j000002]", recovered)
	}
	if err == nil || !strings.Contains(err.Error(), `"scaling"`) || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("want the named scaling refusal, got %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "j000001.outcome.json"))
	if err != nil {
		t.Fatalf("refused sweep must persist an outcome: %v", err)
	}
	var out struct{ Status runner.JobStatus }
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status.State != runner.StateFailed || out.Status.Kind != runner.KindSweep ||
		!strings.Contains(out.Status.Error, "removed") {
		t.Fatalf("refused sweep outcome %+v", out.Status)
	}
	if got := waitTerminal(t, q, "j000002"); got.State != runner.StateDone {
		t.Fatalf("recovered sweep retired as %q (%s)", got.State, got.Error)
	}
}

// TestDaemonBackpressure fills the queue past capacity with real sweep jobs
// and requires 429 + Retry-After from the HTTP layer.
func TestDaemonBackpressure(t *testing.T) {
	_, srv := newDaemon(t, runner.Config{Capacity: 1, Workers: 1})

	// The job must outlive the submit loop so the worker keeps its slot
	// occupied: a 12-cell matrix runs a few hundred milliseconds, the 8
	// submits below a few milliseconds.
	spec := tcc.NewJobSpec(tcc.JobKindSweep)
	spec.Sweep = &tcc.SweepSpec{
		Experiments: []string{"protocols"},
		Apps:        []string{"hotspot", "commitbound"},
		Protocols:   []string{"tcc", "tl2"},
		Procs:       []int{1, 2, 4},
		Scale:       0.25,
		Seed:        3,
		Parallel:    1,
	}
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	saw429 := false
	var codes []int
	for i := 0; i < 8 && !saw429; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			saw429 = true
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatalf("queue never refused a submission (capacity 1, 8 submits, codes %v)", codes)
	}
	// Liveness survives the refusals.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || !h.OK {
		t.Fatalf("healthz: %v %+v", err, h)
	}
}

// TestDaemonRefusesCrashingMachines: a machine no model can be built or
// run on is a 400 at submit, on every protocol, never a job that panics
// the daemon.
func TestDaemonRefusesCrashingMachines(t *testing.T) {
	_, srv := newDaemon(t, runner.Config{})
	machines := []string{
		`{"l2_ways":3}`,
		`{"l1_size":100}`,
		`{"link_bytes_per_cycle":-1}`,
		`{"hop_latency":-1}`,
		`{"mem_latency":-1}`,
		`{"dir_latency":-1}`,
	}
	for _, protocol := range tcc.ProtocolNames() {
		for _, machine := range machines {
			body := fmt.Sprintf(`{"schema":"scalabletcc/job","version":1,"kind":"run",`+
				`"run":{"protocol":%q,"app":"hotspot","procs":4,"scale":0.05,"machine":%s}}`, protocol, machine)
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", protocol, machine, resp.StatusCode)
			}
		}
	}
}
