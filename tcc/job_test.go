package tcc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

func hotspotSpec(procs int) *tcc.JobSpec {
	s := tcc.NewJobSpec(tcc.JobKindRun)
	s.Run = &tcc.RunSpec{App: "hotspot", Procs: procs, Scale: 0.1, Seed: 3}
	return s
}

// readLog reads everything a job wrote to its event log through Wait, one
// block at a time.
func readLog(t *testing.T, l *runner.StreamLog) []byte {
	t.Helper()
	var data []byte
	for len(data) < l.Len() {
		view, _, err := l.Wait(context.Background(), len(data))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, view...)
	}
	return data
}

// RunJob's event stream must be byte-identical to the legacy direct path
// (NewSystem + JSONLObserver) for the same config and seed — the
// determinism contract the SSE path inherits.
func TestRunJobMatchesDirectPath(t *testing.T) {
	spec := hotspotSpec(4)

	var viaJob bytes.Buffer
	out, err := tcc.RunJob(context.Background(), spec, &tcc.RunJobOptions{EventWriter: &viaJob})
	if err != nil {
		t.Fatal(err)
	}

	cfg := tcc.DefaultConfig(4)
	cfg.Seed = 3
	prof := tcc.MustProfile("hotspot").Scale(0.1)
	sys, err := tcc.NewSystem(cfg, prof.Build(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	obs := tcc.NewJSONLObserver(&direct)
	sys.Observe(obs)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(viaJob.Bytes(), direct.Bytes()) {
		t.Fatalf("event streams differ: job %d bytes, direct %d bytes", viaJob.Len(), direct.Len())
	}
	if out.Proto == nil || out.Proto.Scalable == nil {
		t.Fatal("run job must surface the typed scalable results")
	}
	if out.Proto.Scalable.Cycles != res.Cycles {
		t.Fatalf("cycles differ: job %d, direct %d", out.Proto.Scalable.Cycles, res.Cycles)
	}
	var sum struct {
		Cycles uint64 `json:"cycles"`
	}
	if err := json.Unmarshal(out.Result.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Cycles != uint64(res.Cycles) {
		t.Fatalf("wire summary cycles %d, want %d", sum.Cycles, res.Cycles)
	}
}

func TestRunJobRegistryProtocolAndVerify(t *testing.T) {
	spec := hotspotSpec(4)
	spec.Run.Protocol = "tl2"
	spec.Run.Verify = true
	out, err := tcc.RunJob(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Proto.TL2 == nil || out.Result.Protocol != "tl2" {
		t.Fatalf("want typed tl2 results, got %+v", out.Result)
	}
	if out.Result.Serializable == nil || !*out.Result.Serializable {
		t.Fatalf("tl2 hotspot must verify serializable: %+v", out.Result)
	}
}

func TestRunJobMachineOverrides(t *testing.T) {
	retain := 0
	spec := hotspotSpec(4)
	spec.Run.Machine = &tcc.MachineSpec{HopLatency: 8, LineGranularity: true, StarveRetain: &retain}
	out, err := tcc.RunJob(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tcc.RunJob(context.Background(), hotspotSpec(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Proto.Scalable.Cycles == plain.Proto.Scalable.Cycles {
		t.Fatal("machine overrides must change the run")
	}
}

func TestRunJobRejectsBadNames(t *testing.T) {
	spec := hotspotSpec(4)
	spec.Run.App = "no-such-app"
	if _, err := tcc.RunJob(context.Background(), spec, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("want unknown-profile error, got %v", err)
	}
	spec = hotspotSpec(4)
	spec.Run.Protocol = "no-such-protocol"
	if _, err := tcc.RunJob(context.Background(), spec, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") ||
		!strings.Contains(err.Error(), "baseline") {
		t.Fatalf("protocol error must list registry entries, got %v", err)
	}
	spec = hotspotSpec(4)
	spec.Run.SampleEvery = 100
	spec.Run.Protocol = "tl2"
	if _, err := tcc.RunJob(context.Background(), spec, &tcc.RunJobOptions{EventWriter: &bytes.Buffer{}}); err == nil ||
		!strings.Contains(err.Error(), "sampler") {
		t.Fatalf("sampling on tl2 must fail, got %v", err)
	}
	spec = hotspotSpec(4)
	spec.Kind = tcc.JobKindSweep
	spec.Run = nil
	spec.Sweep = &tcc.SweepSpec{}
	// The sweep kind is registered by the experiments package, which this
	// test deliberately does not import.
	if _, err := tcc.RunJob(context.Background(), spec, nil); err == nil ||
		!strings.Contains(err.Error(), "not runnable") {
		t.Fatalf("unregistered kind must be rejected, got %v", err)
	}
}

func TestExecuteJobStreamsToJobContext(t *testing.T) {
	spec := hotspotSpec(2)
	jc := runner.NewJobContext()
	jc.Log = runner.NewStreamLog()
	res, err := tcc.ExecuteJob(context.Background(), spec, jc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != tcc.JobKindRun || res.Protocol != "tcc" {
		t.Fatalf("result: %+v", res)
	}
	data := readLog(t, jc.Log)
	if !bytes.HasPrefix(data, []byte(`{"schema":"scalabletcc/events","version":1}`)) {
		t.Fatalf("daemon path must stream events into the job log, got %q", data[:min(len(data), 80)])
	}

	var direct bytes.Buffer
	if _, err := tcc.RunJob(context.Background(), spec, &tcc.RunJobOptions{EventWriter: &direct}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, direct.Bytes()) {
		t.Fatal("job-log stream and direct EventWriter stream must be byte-identical")
	}
}

// A run the max_cycles watchdog stops keeps its stream: the last block is
// flushed on the error path too. Both the CLI's EventWriter and the
// daemon's StreamLog must end on a line and equal a direct run with the
// same MaxCycles, flushed after its error.
func TestFailedRunKeepsItsStream(t *testing.T) {
	const maxCycles = 20_000
	spec := hotspotSpec(4)
	spec.Run.MaxCycles = maxCycles

	cfg := tcc.DefaultConfig(4)
	cfg.Seed, cfg.MaxCycles = 3, maxCycles
	sys, err := tcc.NewSystem(cfg, tcc.MustProfile("hotspot").Scale(0.1).Build(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	jw := tcc.NewJSONLObserver(&direct)
	sys.Observe(jw)
	_, runErr := sys.Run()
	if runErr == nil || !strings.Contains(runErr.Error(), "watchdog") {
		t.Fatalf("direct run: want the watchdog error, got %v", runErr)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	var viaJob bytes.Buffer
	_, err = tcc.RunJob(context.Background(), spec, &tcc.RunJobOptions{EventWriter: &viaJob})
	if err == nil || err.Error() != runErr.Error() {
		t.Fatalf("run job: want %q, got %v", runErr, err)
	}
	jc := runner.NewJobContext()
	jc.Log = runner.NewStreamLog()
	if _, err := tcc.ExecuteJob(context.Background(), spec, jc); err == nil || err.Error() != runErr.Error() {
		t.Fatalf("daemon path: want %q, got %v", runErr, err)
	}
	logged := readLog(t, jc.Log)
	for name, got := range map[string][]byte{"EventWriter": viaJob.Bytes(), "StreamLog": logged} {
		if len(got) == 0 || got[len(got)-1] != '\n' {
			t.Fatalf("%s: stream of %d bytes does not end on a line", name, len(got))
		}
		if !bytes.Equal(got, direct.Bytes()) {
			t.Fatalf("%s: stream of %d bytes differs from the direct run's %d", name, len(got), direct.Len())
		}
	}
}
