package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

const (
	// clients is how many client connections the jobs workload drives.
	clients = 2
	// forkEvery makes every forkEvery-th job of a client followed by a fork
	// of it with unchanged knobs.
	forkEvery = 4
)

// jobPool is the run jobs the clients cycle through.
func jobPool(o options) []cell {
	var cells []cell
	for _, app := range []string{"barnes", "equake", "volrend", "hotspot"} {
		cells = append(cells, cell{app: app, procs: 8, scale: 0.02 * o.scale,
			seed: cellSeed(o.seed, len(cells)), protocol: "tcc"})
	}
	return cells
}

// jobRecord is one finished job or fork as the client observed it.
type jobRecord struct {
	fork        bool
	jobMs       float64 // POST to result in hand
	submitMs    float64
	resultMs    float64
	queueWaitMs float64 // JobStatus Created to Started
	execMs      float64 // JobStatus Started to Finished
	sseBytes    int
	eventBytes  int // the scalabletcc/events JSONL stream the SSE frames carry
	ckCount     int // checkpoint manifest entries
	ckBytes     int64
}

// jobsEnv is an in-process tccd: a runner.Queue with one worker executing
// tcc.ExecuteJob, served by runner.NewServer on a loopback listener, with
// its state directory under the scratch directory.
type jobsEnv struct {
	cells   []cell
	bodies  [][]byte // encoded job spec per cell
	want    [][]byte // compact reference summary per cell
	instr   []uint64
	total   uint64
	clients int

	dir    string
	q      *runner.Queue
	srv    *http.Server
	served chan error
	base   string
}

// newJobsEnv computes every job's reference with a direct tcc.Run of the
// same spec, then starts the queue and the server.
func newJobsEnv(b *bench, cells []cell, nClients int) (*jobsEnv, error) {
	e := &jobsEnv{cells: cells, clients: nClients}
	for _, c := range cells {
		prog, err := c.program()
		if err != nil {
			return nil, err
		}
		res, err := tcc.Run(c.config(), prog)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c, err)
		}
		v := tcc.Verify(res)
		b.check(len(v) == 0, "reference %s: %d serializability violations", c, len(v))
		sum, err := json.Marshal(res.Summary())
		if err != nil {
			return nil, err
		}
		spec := tcc.NewJobSpec(tcc.JobKindRun)
		spec.Run = runSpec(c)
		// About four snapshots land per job.
		spec.Run.CheckpointEvery = uint64(res.Cycles)/4 + 1
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, body)
		e.want = append(e.want, sum)
		e.instr = append(e.instr, res.Instr)
		e.total += uint64(res.Cycles)
	}

	dir, err := os.MkdirTemp(b.o.scratch, "jobs-state-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	exec := func(ctx context.Context, spec *tcc.JobSpec, jc *tcc.JobContext) (res *tcc.JobResult, err error) {
		b.tr.timed("tcc.execute_job", jc.ID, 0, func() error {
			res, err = tcc.ExecuteJob(ctx, spec, jc)
			return err
		})
		return res, err
	}
	e.q = runner.NewQueue(runner.Config{
		Capacity: 16,
		Workers:  1,
		StateDir: dir,
		Validate: tcc.ValidateJobSpec,
		ForkPrep: tcc.PrepareForkJob,
	}, exec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.q.Shutdown()
		os.RemoveAll(dir)
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: runner.NewServer(e.q)}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// runSpec is the wire form of a cell (verified, on the Table 2 machine).
func runSpec(c cell) *tcc.RunSpec {
	r := &tcc.RunSpec{App: c.app, Procs: c.procs, Scale: c.scale, Seed: c.seed, Verify: true}
	if c.shards > 0 {
		r.Machine = &tcc.MachineSpec{Shards: c.shards}
	}
	return r
}

func (e *jobsEnv) refs() [][]byte   { return e.want }
func (e *jobsEnv) cycles() uint64   { return e.total }
func (e *jobsEnv) corrupt()         { e.want[0] = append([]byte(nil), "corrupted"...) }
func (e *jobsEnv) programs() []cell { return e.cells }

// close stops the server and the queue, waits for both, and removes the
// state directory.
func (e *jobsEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	<-e.served
	e.q.Shutdown()
	os.RemoveAll(e.dir)
}

// loop runs the clients until d has elapsed; each finishes the job it has
// in flight.
func (e *jobsEnv) loop(b *bench, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for id := 0; id < e.clients; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.client(b, id, deadline, 0)
		}()
	}
	wg.Wait()
}

// client is one closed-loop connection: submit a job, read its event
// stream to the done frame, fetch the result; every forkEvery-th job is
// then forked with unchanged knobs and the fork is read to completion too.
// It runs at least one job, stops at the deadline or after maxJobs (0 = no
// limit).
func (e *jobsEnv) client(b *bench, id int, deadline time.Time, maxJobs int) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	for n := 0; n == 0 || (time.Now().Before(deadline) && (maxJobs == 0 || n < maxJobs)); n++ {
		i := (id + n*e.clients) % len(e.cells)
		var parent string
		b.op(kindOp, "job", fmt.Sprintf("c%d/%d/%s", id, n, e.cells[i]), func(sp int) (uint64, error) {
			rec, jobID, err := e.roundTrip(b, hc, sp, "/v1/jobs", i)
			if err != nil {
				return 0, err
			}
			parent = jobID
			if rec.ckCount, rec.ckBytes, err = manifest(filepath.Join(e.dir, jobID+".ckpt.jsonl")); err != nil {
				return 0, err
			}
			b.record(rec)
			return e.instr[i], nil
		})
		if parent == "" || n%forkEvery != forkEvery-1 {
			continue
		}
		b.op(kindFork, "fork", fmt.Sprintf("c%d/%d/%s", id, n, parent), func(sp int) (uint64, error) {
			rec, _, err := e.roundTrip(b, hc, sp, "/v1/jobs/"+parent+"/fork", i)
			if err != nil {
				return 0, err
			}
			rec.fork = true
			b.record(rec)
			return 0, nil
		})
	}
}

// errRefused marks a submission the queue refused (429).
var errRefused = errors.New("queue refused the job (429)")

// roundTrip submits cell i's spec to path (a submit or a fork), reads the
// job's SSE stream to the done frame and fetches the result, checking it
// against the cell's reference summary.
func (e *jobsEnv) roundTrip(b *bench, hc *http.Client, sp int, path string, i int) (jobRecord, string, error) {
	var rec jobRecord
	t0 := time.Now()
	var st runner.JobStatus
	ssp := b.tr.begin("runner.submit", "", sp)
	err := postJSON(hc, e.base+path, e.bodies[i], &st)
	rec.submitMs = ms(time.Since(t0))
	b.tr.end(ssp)
	if errors.Is(err, errRefused) {
		b.refused()
	}
	if err != nil {
		return rec, "", err
	}
	// Every span of the request carries the job ID the server assigned.
	b.tr.setOp(sp, st.ID)
	b.tr.setOp(ssp, st.ID)
	if _, err := b.tr.timed("runner.events", st.ID, sp, func() (err error) {
		rec.sseBytes, rec.eventBytes, err = readEvents(hc, e.base+"/v1/jobs/"+st.ID+"/events")
		return err
	}); err != nil {
		return rec, "", err
	}
	var out struct {
		Status runner.JobStatus  `json:"status"`
		Result *runner.JobResult `json:"result"`
	}
	d, err := b.tr.timed("runner.result", st.ID, sp, func() error {
		return getJSON(hc, e.base+"/v1/jobs/"+st.ID+"/result", &out)
	})
	if err != nil {
		return rec, "", err
	}
	rec.resultMs = ms(d)
	rec.jobMs = ms(time.Since(t0))

	s, r := out.Status, out.Result
	switch {
	case s.State != runner.StateDone:
		return rec, "", fmt.Errorf("job %s ended %s: %s", s.ID, s.State, s.Error)
	case r == nil || r.Serializable == nil || !*r.Serializable || r.Violations != 0:
		return rec, "", fmt.Errorf("job %s did not pass the serializability oracle", s.ID)
	case s.Started == nil || s.Finished == nil:
		return rec, "", fmt.Errorf("job %s has no start or finish time", s.ID)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, r.Summary); err != nil {
		return rec, "", fmt.Errorf("job %s summary: %w", s.ID, err)
	}
	if !bytes.Equal(got.Bytes(), e.want[i]) {
		return rec, "", fmt.Errorf("job %s summary %s differs from direct run %s", s.ID, got.Bytes(), e.want[i])
	}
	rec.queueWaitMs = ms(s.Started.Sub(s.Created))
	rec.execMs = ms(s.Finished.Sub(*s.Started))
	return rec, s.ID, nil
}

func postJSON(hc *http.Client, url string, body []byte, into any) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		return json.Unmarshal(data, into)
	case http.StatusTooManyRequests:
		return errRefused
	}
	return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
}

func getJSON(hc *http.Client, url string, into any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// readEvents reads a job's SSE stream to its end and returns the bytes
// received and the size of the JSONL event stream the data frames carry.
// The stream must end with a done frame reporting state "done".
func readEvents(hc *http.Client, url string) (sseBytes, eventBytes int, err error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	inDone, finished := false, false
	for sc.Scan() {
		line := sc.Bytes()
		sseBytes += len(line) + 1
		payload, isData := bytes.CutPrefix(line, []byte("data: "))
		switch {
		case bytes.Equal(line, []byte("event: done")):
			inDone = true
		case isData && inDone:
			finished = bytes.Contains(payload, []byte(`"state":"done"`))
		case isData:
			eventBytes += len(payload) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if !finished {
		return 0, 0, fmt.Errorf("event stream did not end with a done frame in state done")
	}
	return sseBytes, eventBytes, nil
}

// manifest counts the entries (all lines but the header) and bytes of a
// checkpoint manifest.
func manifest(path string) (int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	n := bytes.Count(data, []byte("\n")) - 1
	if n < 1 {
		return 0, 0, fmt.Errorf("checkpoint manifest %s holds no snapshot", path)
	}
	return n, int64(len(data)), nil
}
