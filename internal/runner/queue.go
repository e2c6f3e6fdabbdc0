package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Job states. A job moves queued → running → one of the terminal states;
// Cancel can also retire it straight from the queue.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// ErrQueueFull is returned by Submit when the bounded queue has no room;
// the HTTP layer translates it into 429 + Retry-After.
var ErrQueueFull = errors.New("runner: job queue is full")

// ErrUnknownJob is returned by Fork when the parent job does not exist; the
// HTTP layer translates it into 404.
var ErrUnknownJob = errors.New("runner: unknown job")

// JobStatus is the polled view of one job.
type JobStatus struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	// ForkedFrom is the parent job's ID for jobs created by Fork.
	ForkedFrom string `json:"forked_from,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Stage/Done/Total report coarse progress for jobs that emit it (sweep
	// jobs report per-experiment cell completion).
	Stage string `json:"stage,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`

	// EventBytes is the size of the captured event stream so far.
	EventBytes int `json:"event_bytes,omitempty"`
}

// JobResult is the terminal payload of a finished job. Cross-package
// payloads (run summaries, sweep reports, fuzz reports) travel as raw JSON
// so this leaf package stays decoupled from their producers.
type JobResult struct {
	Kind     string `json:"kind"`
	Protocol string `json:"protocol,omitempty"`
	// Summary is the run's tcc.Summary in its pinned v1 wire form (run
	// jobs).
	Summary json.RawMessage `json:"summary,omitempty"`
	// Serializable reports the verify oracle's verdict when the spec asked
	// for it (run jobs).
	Serializable *bool `json:"serializable,omitempty"`
	// Violations is the serializability-violation count when verified.
	Violations int `json:"violations,omitempty"`
	// Tables is the rendered experiment-table text (sweep jobs that asked
	// for tables).
	Tables string `json:"tables,omitempty"`
	// Report is the bench-sweep v2 document (sweep jobs).
	Report json.RawMessage `json:"report,omitempty"`
	// Cells is the number of report cells (sweep jobs).
	Cells int `json:"cells,omitempty"`
	// Resumed marks a job that continued from a checkpoint manifest rather
	// than starting fresh (sweeps, and run jobs with checkpoint_every set).
	Resumed bool `json:"resumed,omitempty"`
	// Fuzz is the campaign report (fuzz jobs).
	Fuzz json.RawMessage `json:"fuzz,omitempty"`
}

// JobContext is what the queue hands an executor alongside the spec: the
// stream log to write events to, the checkpoint path (when the queue has a
// state directory), and progress/log callbacks. All fields are optional for
// direct CLI use; callbacks are never nil.
type JobContext struct {
	// ID is the queue-assigned job ID ("" when run directly by a CLI).
	ID string
	// Log captures the job's event stream for SSE subscribers; nil when no
	// one is streaming.
	Log *StreamLog
	// CheckpointPath is the job's checkpoint file ("" disables
	// checkpointing).
	CheckpointPath string
	// Progress reports coarse completion (stage, done, total).
	Progress func(stage string, done, total int)
	// Logf receives human-readable progress lines: fuzz campaign progress
	// and run-checkpoint resume notes. A queued job's lines go to the
	// daemon log, prefixed with the job ID.
	Logf func(format string, args ...any)
}

// normalize fills nil callbacks so executors can call them unconditionally.
func (jc *JobContext) normalize() {
	if jc.Progress == nil {
		jc.Progress = func(string, int, int) {}
	}
	if jc.Logf == nil {
		jc.Logf = func(string, ...any) {}
	}
}

// NewJobContext returns a JobContext with no-op callbacks, for direct
// (non-queued) execution.
func NewJobContext() *JobContext {
	jc := &JobContext{}
	jc.normalize()
	return jc
}

// Executor runs one job. It runs on a queue worker, which waits for it, so
// it must return promptly once ctx is done, with ctx.Err() or an error
// wrapping it: a simulation stops at its next cycle boundary
// (tcc.RunCancelable), a sweep stops every running cell, and a fuzz
// campaign stops its running cases.
type Executor func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error)

// Config parameterizes a Queue.
type Config struct {
	// Capacity bounds the number of queued (not yet running) jobs; Submit
	// refuses with ErrQueueFull beyond it. <1 means 16.
	Capacity int
	// Workers is the number of jobs run concurrently. <1 means 1.
	Workers int
	// JobTimeout bounds each job's wall-clock time (0 = none).
	JobTimeout time.Duration
	// StateDir, when set, persists specs, checkpoint manifests, and final
	// results so jobs survive a daemon restart (see Recover), and holds
	// finished jobs' event streams spilled out of memory.
	StateDir string
	// Validate, when set, vets every spec at admission (tcc.ValidateJobSpec
	// checks profile/protocol/experiment names against the registries).
	Validate func(*JobSpec) error
	// ForkPrep, when set, enables POST /v1/jobs/{id}/fork: it validates the
	// edited child spec against the parent's (rejecting edits that would
	// invalidate the parent's snapshot) and seeds the child's checkpoint
	// manifest from the parent's latest entry. The child spec may be
	// normalized in place (e.g. inheriting the parent's checkpoint cadence)
	// before the queue persists it. tcc.PrepareForkJob is the canonical
	// implementation; nil disables forking.
	ForkPrep func(parent, child *JobSpec, parentCkPath, childCkPath, childID string) error
}

// job is the queue's internal record.
type job struct {
	id     string
	spec   *JobSpec
	status JobStatus
	result *JobResult
	log    *StreamLog
	cancel context.CancelFunc
	// userCanceled distinguishes an explicit Cancel from a queue shutdown:
	// the former is terminal and persisted, the latter leaves the job
	// recoverable.
	userCanceled bool
}

// Queue is the bounded job queue driving a worker pool. Independent
// simulations inside one sweep job still fan out over internal/harness;
// the queue's own workers bound how many jobs make progress at once.
type Queue struct {
	cfg  Config
	exec Executor

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	seq   int

	pending  chan *job
	done     chan struct{} // closed by Shutdown
	shutdown sync.Once
	wg       sync.WaitGroup
}

// NewQueue starts a queue with cfg.Workers workers executing jobs via exec.
func NewQueue(cfg Config, exec Executor) *Queue {
	if cfg.Capacity < 1 {
		cfg.Capacity = 16
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	q := &Queue{
		cfg:     cfg,
		exec:    exec,
		jobs:    make(map[string]*job),
		pending: make(chan *job, cfg.Capacity),
		done:    make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit validates and enqueues spec, returning the new job's status or
// ErrQueueFull when the bounded queue has no room.
func (q *Queue) Submit(spec *JobSpec) (*JobStatus, error) {
	return q.submit(spec, "", false, "")
}

// Fork submits child as a new job continuing parentID's latest kernel
// checkpoint. The Config.ForkPrep hook owns edit legality and manifest
// seeding; the queue owns ID reservation and admission. The parent may be in
// any state — running parents fork from their most recent durable snapshot.
func (q *Queue) Fork(parentID string, child *JobSpec) (*JobStatus, error) {
	if q.cfg.ForkPrep == nil {
		return nil, errors.New("runner: forking is not enabled (no ForkPrep hook)")
	}
	if q.cfg.StateDir == "" {
		return nil, errors.New("runner: forking requires a state directory")
	}
	q.mu.Lock()
	parent, ok := q.jobs[parentID]
	if !ok {
		q.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, parentID)
	}
	parentSpec := parent.spec
	q.seq++
	id := fmt.Sprintf("j%06d", q.seq)
	q.mu.Unlock()
	parentCk := q.checkpointPath(parentID)
	childCk := q.checkpointPath(id)
	if err := q.cfg.ForkPrep(parentSpec, child, parentCk, childCk, id); err != nil {
		return nil, err
	}
	return q.submit(child, id, false, parentID)
}

// checkpointPath is the checkpoint file for one job ID under the state dir.
func (q *Queue) checkpointPath(id string) string {
	return filepath.Join(q.cfg.StateDir, id+".ckpt.jsonl")
}

// admit runs the checks every spec passes before it is queued.
func (q *Queue) admit(spec *JobSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if q.cfg.Validate != nil {
		return q.cfg.Validate(spec)
	}
	return nil
}

func (q *Queue) submit(spec *JobSpec, id string, resumed bool, forkedFrom string) (*JobStatus, error) {
	if err := q.admit(spec); err != nil {
		return nil, err
	}
	q.mu.Lock()
	select {
	case <-q.done:
		q.mu.Unlock()
		return nil, errors.New("runner: queue is shut down")
	default:
	}
	if id == "" {
		q.seq++
		id = fmt.Sprintf("j%06d", q.seq)
	}
	j := &job{
		id:   id,
		spec: spec,
		log:  NewStreamLog(),
		status: JobStatus{
			ID: id, Name: spec.Name, Kind: spec.Kind,
			State: StateQueued, Created: time.Now(), Resumed: resumed,
			ForkedFrom: forkedFrom,
		},
	}
	select {
	case q.pending <- j:
	default:
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
	q.jobs[id] = j
	q.order = append(q.order, id)
	st := j.status // snapshot before unlocking: a worker may mutate it
	q.mu.Unlock()
	if q.cfg.StateDir != "" && !resumed {
		if err := q.persistSpec(j); err != nil {
			return nil, err
		}
	}
	return &st, nil
}

// QueueDepth returns how many jobs are waiting to start.
func (q *Queue) QueueDepth() int { return len(q.pending) }

// Status returns a snapshot of one job's status.
func (q *Queue) Status(id string) (*JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	st := j.status
	st.EventBytes = j.log.Len()
	return &st, true
}

// List returns snapshots of every job in submission order.
func (q *Queue) List() []*JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*JobStatus, 0, len(q.order))
	for _, id := range q.order {
		st := q.jobs[id].status
		st.EventBytes = q.jobs[id].log.Len()
		out = append(out, &st)
	}
	return out
}

// Result returns a finished job's result (nil result for jobs that failed
// before producing one).
func (q *Queue) Result(id string) (*JobResult, *JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, nil, false
	}
	st := j.status
	return j.result, &st, true
}

// Events returns the job's stream log for subscribers.
func (q *Queue) Events(id string) (*StreamLog, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.log, true
}

// Cancel stops a queued or running job. Queued jobs retire immediately;
// running jobs have their context canceled, and their executor stops and
// returns, which retires them. Canceling a finished job is a no-op.
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return fmt.Errorf("runner: unknown job %q", id)
	}
	// Only the first Cancel of a queued job retires it; userCanceled also
	// keeps a worker from starting it meanwhile.
	retire := j.status.State == StateQueued && !j.userCanceled
	j.userCanceled = true
	var cancel context.CancelFunc
	if j.status.State == StateRunning {
		cancel = j.cancel
	}
	q.mu.Unlock()
	if retire {
		q.finish(j, StateCanceled, nil, errors.New("canceled before start"))
	}
	if cancel != nil {
		cancel()
	}
	return nil
}

// Shutdown stops the queue: no new submissions, running jobs are
// interrupted (left resumable, not marked canceled), queued jobs stay
// queued on disk, and all workers, with the executors they ran, exit
// before Shutdown returns. With a StateDir, a new Queue over the same
// directory picks everything up via Recover — the daemon-restart path.
func (q *Queue) Shutdown() {
	q.shutdown.Do(func() {
		close(q.done)
		q.mu.Lock()
		var cancels []context.CancelFunc
		for _, j := range q.jobs {
			if j.status.State == StateRunning && j.cancel != nil {
				cancels = append(cancels, j.cancel)
			}
		}
		q.mu.Unlock()
		for _, c := range cancels {
			c()
		}
	})
	q.wg.Wait()
}

// worker runs jobs from the pending channel until shutdown.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.done:
			return
		case j := <-q.pending:
			q.runJob(j)
		}
	}
}

// runJob executes one job under its cancellation context, which Cancel,
// Shutdown and the JobTimeout deadline end.
func (q *Queue) runJob(j *job) {
	q.mu.Lock()
	if j.status.State != StateQueued || j.userCanceled {
		q.mu.Unlock()
		return // canceled while queued
	}
	select {
	case <-q.done:
		q.mu.Unlock()
		return // shutting down: leave the job queued and recoverable
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	if q.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), q.cfg.JobTimeout)
	}
	defer cancel()
	j.cancel = cancel
	now := time.Now()
	j.status.State = StateRunning
	j.status.Started = &now
	q.mu.Unlock()

	jc := &JobContext{
		ID:  j.id,
		Log: j.log,
		Progress: func(stage string, done, total int) {
			q.mu.Lock()
			j.status.Stage, j.status.Done, j.status.Total = stage, done, total
			q.mu.Unlock()
		},
		Logf: func(format string, args ...any) {
			log.Printf("job %s: %s", j.id, fmt.Sprintf(format, args...))
		},
	}
	jc.normalize()
	// Sweeps always checkpoint (per completed cell); run jobs checkpoint at
	// kernel-snapshot granularity only when the spec asks for a cadence.
	if q.cfg.StateDir != "" {
		switch {
		case j.spec.Kind == KindSweep,
			j.spec.Kind == KindRun && j.spec.Run != nil && j.spec.Run.CheckpointEvery > 0:
			jc.CheckpointPath = q.checkpointPath(j.id)
		}
	}

	res, err := q.execute(ctx, j.spec, jc)
	var state string
	switch {
	case err == nil:
		state = StateDone
	case ctx.Err() != nil:
		state, err = q.interruptState(j, ctx, err)
	default:
		state = StateFailed
	}
	if state == "" {
		// Queue shutdown: leave the job resumable. Re-mark it queued so an
		// in-process observer sees a consistent state; the persisted spec
		// (with no result) is what Recover keys on.
		q.mu.Lock()
		j.status.State = StateQueued
		j.status.Started = nil
		q.mu.Unlock()
		return
	}
	q.finish(j, state, res, err)
}

// execute runs the executor on the worker goroutine. A panicking executor
// fails its job (persisted like any failure, so Recover does not replay it)
// instead of taking the daemon down.
func (q *Queue) execute(ctx context.Context, spec *JobSpec, jc *JobContext) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("runner: executor panicked: %v", r)
		}
	}()
	return q.exec(ctx, spec, jc)
}

// interruptState classifies a context interruption: user cancel, wall-clock
// timeout, or queue shutdown ("" = leave resumable).
func (q *Queue) interruptState(j *job, ctx context.Context, err error) (string, error) {
	q.mu.Lock()
	user := j.userCanceled
	q.mu.Unlock()
	switch {
	case user:
		return StateCanceled, errors.New("canceled")
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return StateFailed, fmt.Errorf("wall-clock guard expired after %v", q.cfg.JobTimeout)
	default:
		select {
		case <-q.done:
			return "", err // shutdown: resumable
		default:
			return StateCanceled, errors.New("canceled")
		}
	}
}

// finish retires a job; callers do not hold q.mu. With a state directory
// the outcome is persisted and the event log spilled before the terminal
// state is published, all outside q.mu so other clients never wait on the
// disk: Recover keys on the outcome file, so a job must never show as
// terminal before that file exists.
func (q *Queue) finish(j *job, state string, res *JobResult, err error) {
	now := time.Now()
	q.mu.Lock()
	st := j.status
	q.mu.Unlock()
	st.State = state
	st.Finished = &now
	if err != nil {
		st.Error = err.Error()
	}
	if q.cfg.StateDir != "" {
		// Persistence failures must not wedge the queue; surface them in
		// the job's error field instead. A log that fails to spill stays
		// in memory.
		if perr := q.persistOutcome(j.id, st, res); perr != nil && st.Error == "" {
			st.Error = perr.Error()
		}
		if serr := j.log.Spill(q.eventsPath(j.id)); serr != nil && st.Error == "" {
			st.Error = serr.Error()
		}
	}
	q.mu.Lock()
	j.status.State, j.status.Finished, j.status.Error = st.State, st.Finished, st.Error
	j.result = res
	j.log.Close()
	q.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Persistence: <state>/<id>.spec.json, <id>.ckpt.jsonl, <id>.outcome.json,
// and <id>.events.jsonl — a finished job's event stream, spilled out of
// memory; it is read only by the process that ran the job, to serve later
// event-stream reads. The spec and the outcome are replaced atomically
// (writeAtomic): Recover takes an outcome file's existence to mean the job
// finished, so it must never see a torn one.

type persistedOutcome struct {
	Status JobStatus  `json:"status"`
	Result *JobResult `json:"result,omitempty"`
}

func (q *Queue) persistSpec(j *job) error {
	data, err := j.spec.Encode()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(q.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("runner: state dir: %w", err)
	}
	path := filepath.Join(q.cfg.StateDir, j.id+".spec.json")
	if err := writeAtomic(path, data); err != nil {
		return fmt.Errorf("runner: persist spec: %w", err)
	}
	return nil
}

// eventsPath is the spill file of one job's finished event stream.
func (q *Queue) eventsPath(id string) string {
	return filepath.Join(q.cfg.StateDir, id+".events.jsonl")
}

func (q *Queue) persistOutcome(id string, st JobStatus, res *JobResult) error {
	data, err := json.MarshalIndent(persistedOutcome{Status: st, Result: res}, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: persist outcome: %w", err)
	}
	path := filepath.Join(q.cfg.StateDir, id+".outcome.json")
	if err := writeAtomic(path, data, []byte{'\n'}); err != nil {
		return fmt.Errorf("runner: persist outcome: %w", err)
	}
	return nil
}

// Recover re-enqueues every persisted job that has a spec but no recorded
// outcome — jobs that were queued or running when the previous daemon
// stopped. First it removes every temp file (*.tmp) a crash left in the
// middle of an atomic replace: none is ever read, and nothing is running
// yet to be writing one. Sweep jobs find their checkpoint manifest (same
// ID, same state directory) and resume instead of recomputing. A stored
// spec that no longer decodes or passes admission (it names something
// since removed, say) gets a failed outcome naming the reason, so it is
// reported once and never retried, and recovery goes on with the rest. Returns the recovered
// IDs in order, and every job that could not be recovered as one error.
func (q *Queue) Recover() ([]string, error) {
	if q.cfg.StateDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(q.cfg.StateDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: scan state dir: %w", err)
	}
	var ids []string
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if path, ok := strings.CutSuffix(name, ".tmp"); ok {
			if err := RemoveStaleTemp(filepath.Join(q.cfg.StateDir, path)); err != nil {
				errs = append(errs, err)
			}
			continue
		}
		if !strings.HasSuffix(name, ".spec.json") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".spec.json"))
	}
	sort.Strings(ids)
	var recovered []string
	for _, id := range ids {
		// Keep the sequence counter ahead of every stored ID, so a new job
		// never takes over a stored job's files.
		var n int
		if _, err := fmt.Sscanf(id, "j%06d", &n); err == nil {
			q.mu.Lock()
			if n > q.seq {
				q.seq = n
			}
			q.mu.Unlock()
		}
		if _, err := os.Stat(filepath.Join(q.cfg.StateDir, id+".outcome.json")); err == nil {
			continue // finished in a previous life
		}
		data, err := os.ReadFile(filepath.Join(q.cfg.StateDir, id+".spec.json"))
		if err != nil {
			errs = append(errs, fmt.Errorf("runner: recover %s: %w", id, err))
			continue // unreadable now, perhaps not at the next restart
		}
		spec, err := DecodeJobSpec(data)
		if err == nil {
			err = q.admit(spec)
		}
		if err != nil {
			err = fmt.Errorf("runner: recover %s: %w", id, err)
			errs = append(errs, err)
			if perr := q.refuse(id, spec, err); perr != nil {
				errs = append(errs, perr)
			}
			continue
		}
		if _, err := q.submit(spec, id, true, ""); err != nil {
			errs = append(errs, fmt.Errorf("runner: recover %s: %w", id, err))
			break // the queue is full or shut down: nothing later fits either
		}
		recovered = append(recovered, id)
	}
	return recovered, errors.Join(errs...)
}

// refuse persists a failed outcome for a stored job Recover cannot resume;
// spec is nil when the stored spec did not decode.
func (q *Queue) refuse(id string, spec *JobSpec, err error) error {
	now := time.Now()
	st := JobStatus{ID: id, State: StateFailed, Error: err.Error(), Created: now, Finished: &now}
	if spec != nil {
		st.Name, st.Kind = spec.Name, spec.Kind
	}
	return q.persistOutcome(id, st, nil)
}
