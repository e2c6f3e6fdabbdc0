package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func runSpec(name string) *JobSpec {
	s := NewJobSpec(KindRun)
	s.Name = name
	s.Run = &RunSpec{App: "hotspot", Procs: 2}
	return s
}

// blockingExecutor runs jobs that block until released (or ctx cancel),
// so tests can pin the queue in known states.
type blockingExecutor struct {
	mu      sync.Mutex
	started chan string
	release map[string]chan struct{}
}

func newBlockingExecutor() *blockingExecutor {
	return &blockingExecutor{
		started: make(chan string, 64),
		release: make(map[string]chan struct{}),
	}
}

func (b *blockingExecutor) gate(id string) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.release[id]
	if !ok {
		ch = make(chan struct{})
		b.release[id] = ch
	}
	return ch
}

func (b *blockingExecutor) exec(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
	b.started <- jc.ID
	fmt.Fprintf(jc.Log, "{\"k\":\"hello\",\"job\":%q}\n", jc.ID)
	select {
	case <-b.gate(jc.ID):
		return &JobResult{Kind: spec.Kind}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func waitState(t *testing.T, q *Queue, id, want string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := q.Status(id)
		if ok && st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := q.Status(id)
	t.Fatalf("job %s never reached %q (last: %+v)", id, want, st)
	return nil
}

func TestQueueBackpressure(t *testing.T) {
	ex := newBlockingExecutor()
	q := NewQueue(Config{Capacity: 2, Workers: 1}, ex.exec)
	defer q.Shutdown()

	// One running + two queued fills the queue.
	first, err := q.Submit(runSpec("running"))
	if err != nil {
		t.Fatal(err)
	}
	<-ex.started
	var queued []*JobStatus
	for i := 0; i < 2; i++ {
		st, err := q.Submit(runSpec("queued"))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st)
	}
	if _, err := q.Submit(runSpec("overflow")); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if d := q.QueueDepth(); d != 2 {
		t.Fatalf("queue depth %d, want 2", d)
	}

	// Finishing the running job frees a slot.
	close(ex.gate(first.ID))
	waitState(t, q, first.ID, StateDone)
	<-ex.started // next job picked up
	if _, err := q.Submit(runSpec("fits-now")); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	for _, st := range queued {
		close(ex.gate(st.ID))
	}
}

func TestQueueCancelRunningAndQueued(t *testing.T) {
	ex := newBlockingExecutor()
	q := NewQueue(Config{Capacity: 4, Workers: 1}, ex.exec)
	defer q.Shutdown()

	running, _ := q.Submit(runSpec("running"))
	<-ex.started
	queued, _ := q.Submit(runSpec("queued"))

	if err := q.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, q, queued.ID, StateCanceled)
	if st.Finished == nil {
		t.Fatal("canceled queued job must have a finish time")
	}

	if err := q.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running.ID, StateCanceled)
	if err := q.Cancel("j999999"); err == nil {
		t.Fatal("cancel of unknown job must error")
	}
	// The stream log must be closed for terminal jobs.
	log, _ := q.Events(running.ID)
	if _, closed := tail(t, log, 0); !closed {
		t.Fatal("canceled job's stream must be closed")
	}
}

func TestQueueWallClockGuard(t *testing.T) {
	ex := newBlockingExecutor()
	q := NewQueue(Config{Capacity: 2, Workers: 1, JobTimeout: 20 * time.Millisecond}, ex.exec)
	defer q.Shutdown()
	st, _ := q.Submit(runSpec("wedged"))
	<-ex.started
	got := waitState(t, q, st.ID, StateFailed)
	if !strings.Contains(got.Error, "wall-clock guard") {
		t.Fatalf("want wall-clock error, got %q", got.Error)
	}
}

func TestQueueValidateHook(t *testing.T) {
	q := NewQueue(Config{
		Capacity: 1, Workers: 1,
		Validate: func(s *JobSpec) error {
			if s.Run != nil && s.Run.App == "nope" {
				return fmt.Errorf("unknown profile %q", s.Run.App)
			}
			return nil
		},
	}, func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
		return &JobResult{Kind: spec.Kind}, nil
	})
	defer q.Shutdown()
	bad := runSpec("x")
	bad.Run.App = "nope"
	if _, err := q.Submit(bad); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("validator must gate admission, got %v", err)
	}
}

// A fork the queue refuses (not admitted, queue full, shut down) leaves no
// checkpoint file behind: ForkPrep has already seeded the child's, and no
// stored spec would ever point at it. An admitted fork keeps its file.
func TestForkRefusedRemovesSeededCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ex := newBlockingExecutor()
	q := NewQueue(Config{
		Capacity: 1, Workers: 1, StateDir: dir,
		Validate: func(s *JobSpec) error {
			if s.Run.App == "nope" {
				return fmt.Errorf("unknown profile %q", s.Run.App)
			}
			return nil
		},
		ForkPrep: func(_, _ *JobSpec, _, childCk, _ string) error {
			return os.WriteFile(childCk, []byte("seeded\n"), 0o644)
		},
	}, ex.exec)
	defer q.Shutdown()
	checkpoints := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "*.ckpt.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	parent, err := q.Submit(runSpec("parent"))
	if err != nil {
		t.Fatal(err)
	}
	<-ex.started
	bad := runSpec("not-admitted")
	bad.Run.App = "nope"
	if _, err := q.Fork(parent.ID, bad); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("want the admission error, got %v", err)
	}
	if got := checkpoints(); len(got) != 0 {
		t.Fatalf("a fork refused at admission left %v", got)
	}

	filler, err := q.Submit(runSpec("filler"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Fork(parent.ID, runSpec("overflow")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := checkpoints(); len(got) != 0 {
		t.Fatalf("a fork refused by the full queue left %v", got)
	}

	close(ex.gate(parent.ID))
	waitState(t, q, parent.ID, StateDone)
	<-ex.started // the filler runs, so the queue has room
	child, err := q.Fork(parent.ID, runSpec("child"))
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpoints(); len(got) != 1 || filepath.Base(got[0]) != child.ID+".ckpt.jsonl" {
		t.Fatalf("an admitted fork must keep its seeded checkpoint, found %v", got)
	}
	close(ex.gate(filler.ID))
	close(ex.gate(child.ID))

	q.Shutdown()
	if _, err := q.Fork(parent.ID, runSpec("late")); err == nil {
		t.Fatal("a fork after shutdown was admitted")
	}
	if got := checkpoints(); len(got) != 1 {
		t.Fatalf("a fork refused after shutdown left a checkpoint: %v", got)
	}
}

func TestQueuePersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	ex := newBlockingExecutor()
	q := NewQueue(Config{Capacity: 4, Workers: 1, StateDir: dir}, ex.exec)

	done, _ := q.Submit(runSpec("finishes"))
	<-ex.started
	close(ex.gate(done.ID))
	waitState(t, q, done.ID, StateDone)

	running, _ := q.Submit(runSpec("interrupted"))
	<-ex.started
	queued, _ := q.Submit(runSpec("still-queued"))
	q.Shutdown() // the "daemon restart"

	if _, err := os.Stat(filepath.Join(dir, done.ID+".outcome.json")); err != nil {
		t.Fatalf("finished job must persist an outcome: %v", err)
	}

	ex2 := newBlockingExecutor()
	q2 := NewQueue(Config{Capacity: 4, Workers: 1, StateDir: dir}, ex2.exec)
	defer q2.Shutdown()
	ids, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{running.ID, queued.ID}
	if len(ids) != 2 || ids[0] != want[0] || ids[1] != want[1] {
		t.Fatalf("recovered %v, want %v", ids, want)
	}
	for _, id := range ids {
		st, ok := q2.Status(id)
		if !ok || !st.Resumed {
			t.Fatalf("recovered job %s must be marked resumed: %+v", id, st)
		}
	}
	// New IDs must not collide with recovered ones.
	fresh, err := q2.Submit(runSpec("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == running.ID || fresh.ID == queued.ID {
		t.Fatalf("fresh ID %s collides with recovered IDs", fresh.ID)
	}
	for _, id := range append(ids, fresh.ID) {
		close(ex2.gate(id))
	}
}

// TestRecoverSkipsUnadmittableSpecs: a stored spec that no longer passes
// admission or no longer decodes fails its own job, with the reason
// persisted, and recovery goes on to the stored jobs after it.
func TestRecoverSkipsUnadmittableSpecs(t *testing.T) {
	dir := t.TempDir()
	retired := runSpec("retired")
	retired.Run.App = "retired-app"
	for id, spec := range map[string]*JobSpec{"j000001": retired, "j000003": runSpec("valid")} {
		data, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".spec.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "j000002.spec.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Capacity: 4, Workers: 1, StateDir: dir,
		Validate: func(s *JobSpec) error {
			if s.Run != nil && s.Run.App == "retired-app" {
				return fmt.Errorf("profile %q was removed", s.Run.App)
			}
			return nil
		},
	}
	exec := func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
		return &JobResult{Kind: spec.Kind}, nil
	}

	q := NewQueue(cfg, exec)
	ids, err := q.Recover()
	if len(ids) != 1 || ids[0] != "j000003" {
		t.Fatalf("recovered %v, want [j000003]", ids)
	}
	if err == nil || !strings.Contains(err.Error(), "j000001") || !strings.Contains(err.Error(), "was removed") ||
		!strings.Contains(err.Error(), "j000002") {
		t.Fatalf("want both refusals reported, got %v", err)
	}
	for id, reason := range map[string]string{"j000001": "was removed", "j000002": "decode job spec"} {
		data, rerr := os.ReadFile(filepath.Join(dir, id+".outcome.json"))
		if rerr != nil {
			t.Fatalf("refused job %s must persist an outcome: %v", id, rerr)
		}
		var out persistedOutcome
		if rerr := json.Unmarshal(data, &out); rerr != nil {
			t.Fatal(rerr)
		}
		if out.Status.ID != id || out.Status.State != StateFailed || !strings.Contains(out.Status.Error, reason) {
			t.Fatalf("%s outcome %+v, want failed naming %q", id, out.Status, reason)
		}
	}
	waitState(t, q, "j000003", StateDone)
	fresh, err := q.Submit(runSpec("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "j000004" {
		t.Fatalf("fresh job took ID %s, want j000004 (after every stored ID)", fresh.ID)
	}
	waitState(t, q, fresh.ID, StateDone)
	q.Shutdown()

	// The refusals are outcomes now: the next restart neither retries nor
	// reports them.
	q2 := NewQueue(cfg, exec)
	defer q2.Shutdown()
	if ids, err := q2.Recover(); len(ids) != 0 || err != nil {
		t.Fatalf("second restart recovered %v, err %v; want nothing", ids, err)
	}
}

// A crash while an outcome was being written leaves only its temp file:
// the job has no outcome, so Recover runs it again, and its result then
// replaces the temp file. A spec whose own write was cut short (only
// <id>.spec.json.tmp) names no job.
func TestRecoverRerunsTornOutcome(t *testing.T) {
	dir := t.TempDir()
	data, err := runSpec("torn").Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"j000001.spec.json":        data,
		"j000001.outcome.json.tmp": []byte(`{"status":{"id":"j000001","state":"do`),
		"j000002.spec.json.tmp":    data[:len(data)/2],
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exec := func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
		return &JobResult{Kind: spec.Kind}, nil
	}
	q := NewQueue(Config{Capacity: 4, Workers: 1, StateDir: dir}, exec)
	defer q.Shutdown()
	ids, err := q.Recover()
	if err != nil || len(ids) != 1 || ids[0] != "j000001" {
		t.Fatalf("recovered %v (err %v), want [j000001]", ids, err)
	}
	waitState(t, q, "j000001", StateDone)
	out, err := os.ReadFile(filepath.Join(dir, "j000001.outcome.json"))
	if err != nil {
		t.Fatal(err)
	}
	var po persistedOutcome
	if err := json.Unmarshal(out, &po); err != nil || po.Status.State != StateDone {
		t.Fatalf("rerun outcome %q (err %v), want state done", out, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "j000001.outcome.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("torn outcome temp file survived the rerun's write: %v", err)
	}
}

// A crash image: temp files of interrupted atomic replaces, for a finished
// job, an unfinished one and a spec that was never written. Recover removes
// every one of them before any job runs, and leaves the rest alone.
func TestRecoverRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	spec, err := runSpec("crashed").Encode()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"j000001.spec.json":         spec,
		"j000001.outcome.json":      []byte(`{"status":{"id":"j000001","state":"done"}}`),
		"j000001.ckpt.jsonl.tmp":    []byte("torn snapshot"),
		"j000002.spec.json":         spec,
		"j000002.ckpt.jsonl.tmp":    []byte("torn snapshot"),
		"j000002.outcome.json.tmp":  []byte(`{"status":`),
		"j000003.spec.json.tmp":     spec[:10],
		"j000002.ckpt.jsonl.events": []byte("kept\n"),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ex := newBlockingExecutor()
	q := NewQueue(Config{Capacity: 4, Workers: 1, StateDir: dir}, ex.exec)
	defer q.Shutdown()
	ids, err := q.Recover()
	if err != nil || len(ids) != 1 || ids[0] != "j000002" {
		t.Fatalf("recovered %v (err %v), want [j000002]", ids, err)
	}
	<-ex.started
	for name := range files {
		_, err := os.Stat(filepath.Join(dir, name))
		if stale := strings.HasSuffix(name, ".tmp"); stale != os.IsNotExist(err) {
			t.Errorf("%s: stat error %v after Recover", name, err)
		}
	}
	close(ex.gate("j000002"))
	waitState(t, q, "j000002", StateDone)
}

// TestQueuePanicFailsJob: a panicking executor fails its job and leaves
// the queue serving the next one, and the failure is persisted, so a
// queue restarted over the same state dir does not run the job again.
func TestQueuePanicFailsJob(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := map[string]int{}
	exec := func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
		mu.Lock()
		runs[spec.Name]++
		mu.Unlock()
		if spec.Name == "boom" {
			panic("model bug")
		}
		return &JobResult{Kind: spec.Kind}, nil
	}
	q := NewQueue(Config{Capacity: 4, Workers: 1, StateDir: dir}, exec)
	boom, err := q.Submit(runSpec("boom"))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, q, boom.ID, StateFailed)
	if !strings.Contains(st.Error, "model bug") {
		t.Fatalf("failed job error %q lacks the panic text", st.Error)
	}
	next, err := q.Submit(runSpec("next"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, next.ID, StateDone)
	q.Shutdown()

	q2 := NewQueue(Config{Capacity: 4, Workers: 1, StateDir: dir}, exec)
	defer q2.Shutdown()
	ids, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("restarted queue recovered %v; the panicked job must stay failed", ids)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs["boom"] != 1 {
		t.Fatalf("panicking job ran %d times, want 1", runs["boom"])
	}
}

func TestStreamLogFollowsAndCloses(t *testing.T) {
	l := NewStreamLog()
	if _, err := l.Write([]byte("line1\n")); err != nil {
		t.Fatal(err)
	}
	data, closed := tail(t, l, 0)
	if string(data) != "line1\n" || closed {
		t.Fatalf("got %q closed=%v", data, closed)
	}

	got := make(chan string, 1)
	go func() {
		d, _, _ := l.Wait(context.Background(), len(data))
		got <- string(d)
	}()
	time.Sleep(5 * time.Millisecond)
	l.Write([]byte("line2\n"))
	if s := <-got; s != "line2\n" {
		t.Fatalf("waiter saw %q", s)
	}

	l.Close()
	if n, err := l.Write([]byte("dropped\n")); err != nil || n != 8 {
		t.Fatalf("post-close write must succeed silently, got n=%d err=%v", n, err)
	}
	data, closed = tail(t, l, 0)
	if string(data) != "line1\nline2\n" || !closed {
		t.Fatalf("final state %q closed=%v", data, closed)
	}
	// Wait at EOF of a closed stream returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, closed, err := l.Wait(ctx, l.Len()); err != nil || !closed {
		t.Fatalf("closed-stream wait: closed=%v err=%v", closed, err)
	}
}

// With a state directory, finishing a job writes its outcome and spills its
// event log outside the queue lock, before the terminal state is published:
// no client may see a job terminal whose outcome file (which Recover keys
// on) does not exist yet. A queued job canceled from several goroutines at
// once is retired exactly once and never starts.
func TestQueueTerminalStateFollowsPersistence(t *testing.T) {
	dir := t.TempDir()
	ex := newBlockingExecutor()
	q := NewQueue(Config{Capacity: 8, Workers: 1, StateDir: dir}, ex.exec)
	defer q.Shutdown()
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := q.Submit(runSpec(fmt.Sprintf("job%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 3; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range q.List() {
					if st.State != StateDone && st.State != StateCanceled {
						continue
					}
					if _, err := os.Stat(filepath.Join(dir, st.ID+".outcome.json")); err != nil {
						t.Errorf("job %s shows %s before its outcome is persisted", st.ID, st.State)
						return
					}
					if st.State == StateDone {
						if _, err := os.Stat(filepath.Join(dir, st.ID+".events.jsonl")); err != nil {
							t.Errorf("job %s shows done before its event log is spilled", st.ID)
							return
						}
					}
				}
			}
		}()
	}

	var cancels sync.WaitGroup
	for c := 0; c < 4; c++ {
		cancels.Add(1)
		go func() {
			defer cancels.Done()
			if err := q.Cancel(ids[3]); err != nil {
				t.Error(err)
			}
		}()
	}
	cancels.Wait()
	if st, _ := q.Status(ids[3]); st.State != StateCanceled {
		t.Fatalf("canceled queued job is %s", st.State)
	}
	for range ids[:3] {
		id := <-ex.started
		if id == ids[3] {
			t.Fatalf("job %s started after it was canceled", id)
		}
		close(ex.gate(id))
		waitState(t, q, id, StateDone)
	}
	close(stop)
	pollers.Wait()

	for _, id := range ids[:3] {
		log, _ := q.Events(id)
		data, closed := tail(t, log, 0)
		if want := fmt.Sprintf("{\"k\":\"hello\",\"job\":%q}\n", id); !closed || string(data) != want {
			t.Fatalf("spilled log of %s: %q closed=%v", id, data, closed)
		}
	}
}

// A queued job's Logf lines reach the daemon log, prefixed with the job ID.
func TestQueueLogfReachesDaemonLog(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	log.SetOutput(lockedWriter{&mu, &buf})
	defer log.SetOutput(os.Stderr)
	exec := func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
		jc.Logf("recomputing from scratch (%d)", 7)
		return &JobResult{Kind: spec.Kind}, nil
	}
	q := NewQueue(Config{Capacity: 2, Workers: 1}, exec)
	defer q.Shutdown()
	st, err := q.Submit(runSpec("logged"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, st.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if want := "job " + st.ID + ": recomputing from scratch (7)\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("daemon log %q lacks %q", buf.String(), want)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
