// Command tccd serves the simulator as a service: a bounded job queue
// behind an HTTP/JSON API. Clients POST versioned job specs
// (scalabletcc/job v1: single runs, experiment sweeps, fuzz campaigns),
// poll status, stream live protocol events over SSE, and fetch typed
// results. Sweep jobs checkpoint each completed cell to the state
// directory, and run jobs with checkpoint_every set snapshot the full
// simulator state every N cycles, so a restarted daemon resumes them
// instead of recomputing — a resumed run replays to byte-identical
// results. A checkpointed run can also be forked: a new job continues
// from the parent's latest snapshot under edited timing knobs.
//
// Usage:
//
//	tccd -addr :8077 -state /var/lib/tccd
//	tccd -queue 32 -workers 2 -job-timeout 2h
//
// API (all JSON unless noted):
//
//	POST /v1/jobs            submit a spec; 202 + status, 429 when full
//	GET  /v1/jobs            list job statuses
//	GET  /v1/jobs/{id}        one job's status
//	GET  /v1/jobs/{id}/events live event stream (SSE, scalabletcc/events v1)
//	GET  /v1/jobs/{id}/result status + result; 409 until terminal
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	POST /v1/jobs/{id}/fork   new job from {id}'s latest checkpoint snapshot
//	GET  /v1/protocols        the protocol registry
//	GET  /v1/profiles         the workload-profile registry
//	GET  /healthz             liveness + queue depth
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "scalabletcc/internal/experiments" // registers the "sweep" job kind
	_ "scalabletcc/internal/fuzz"        // registers the "fuzz" job kind
	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

// runWatchdogCycles is the deadlock guard applied to daemon-submitted run
// jobs that set no MaxCycles of their own: a service must not let one
// wedged simulation pin a worker forever. CLI runs are not subject to it.
const runWatchdogCycles = 50_000_000_000

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8077", "listen address")
		// The defaults are sized by the daemon load test
		// (TestDaemonLoadManySmallJobs): 2000 small run jobs from 64
		// concurrent submitters drain without a single 429 at queue 64 /
		// workers 4, where the old 16/1 refused hundreds. Sweep-heavy
		// deployments may prefer -workers 1, since each sweep already fans
		// its cells across cores.
		capacity   = flag.Int("queue", 64, "max queued (not yet running) jobs; beyond it POST /v1/jobs answers 429")
		workers    = flag.Int("workers", 4, "jobs run concurrently (each sweep still fans its cells across cores)")
		jobTimeout = flag.Duration("job-timeout", 0, "wall-clock guard per job, e.g. 2h (0 = none)")
		stateDir   = flag.String("state", "", "state directory: persists specs, checkpoints, and results; enables restart resume")
	)
	flag.Parse()

	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatalf("tccd: state dir: %v", err)
		}
	}

	q := runner.NewQueue(runner.Config{
		Capacity:   *capacity,
		Workers:    *workers,
		JobTimeout: *jobTimeout,
		StateDir:   *stateDir,
		Validate:   tcc.ValidateJobSpec,
		ForkPrep:   tcc.PrepareForkJob,
	}, executeJob)

	if *stateDir != "" {
		resumed, err := q.Recover()
		if err != nil {
			log.Printf("tccd: recover: %v", err)
		}
		for _, id := range resumed {
			log.Printf("tccd: resuming job %s from %s", id, *stateDir)
		}
	}

	mux := runner.NewServer(q)
	mux.HandleFunc("GET /v1/protocols", serveProtocols)
	mux.HandleFunc("GET /v1/profiles", serveProfiles)

	srv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	log.Printf("tccd: serving on %s (queue %d, workers %d)", *addr, *capacity, *workers)
	select {
	case err := <-errc:
		log.Fatalf("tccd: %v", err)
	case sig := <-sigc:
		log.Printf("tccd: %v: draining (running sweeps stay resumable)", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	q.Shutdown()
}

// executeJob is the daemon's executor: tcc.ExecuteJob with the service-side
// watchdog default for run jobs. Checkpointed run jobs keep their spec
// verbatim — the checkpoint file's header binds the spec hash, so editing
// the spec here would orphan the job's own snapshots on resume and fork —
// and they are interruptible by construction, which is what the watchdog
// exists to guarantee.
func executeJob(ctx context.Context, spec *runner.JobSpec, jc *runner.JobContext) (*runner.JobResult, error) {
	if spec.Kind == runner.KindRun && spec.Run != nil && spec.Run.MaxCycles == 0 && spec.Run.CheckpointEvery == 0 {
		guarded := *spec
		run := *spec.Run
		run.MaxCycles = runWatchdogCycles
		guarded.Run = &run
		spec = &guarded
	}
	return tcc.ExecuteJob(ctx, spec, jc)
}

func serveProtocols(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name        string `json:"name"`
		Detection   string `json:"detection"`
		Description string `json:"description"`
	}
	var list []entry
	for _, info := range tcc.Protocols() {
		list = append(list, entry{info.Name, string(info.Detection), info.Description})
	}
	writeJSON(w, map[string]any{"protocols": list})
}

func serveProfiles(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name      string `json:"name"`
		TxInstr   int    `json:"tx_instr"`
		ReadWords int    `json:"read_words"`
		WrWords   int    `json:"write_words"`
		Stress    bool   `json:"stress,omitempty"`
	}
	var list []entry
	for _, p := range tcc.Profiles() {
		list = append(list, entry{Name: p.Name, TxInstr: p.TxInstr, ReadWords: p.ReadWords, WrWords: p.WriteWords})
	}
	for _, p := range tcc.StressProfiles() {
		list = append(list, entry{Name: p.Name, TxInstr: p.TxInstr, ReadWords: p.ReadWords, WrWords: p.WriteWords, Stress: true})
	}
	writeJSON(w, map[string]any{"profiles": list})
}

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encode"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
