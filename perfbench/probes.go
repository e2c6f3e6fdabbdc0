package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"scalabletcc/internal/stats"
	"scalabletcc/tcc"
)

// rivalProtocols are the non-paper machine models, in report order.
var rivalProtocols = []string{"tl2", "eager", "baseline"}

// probeRepeats is how many times a probe that compares two timings runs
// each side; the ratio is of the medians.
const probeRepeats = 3

// traced is the --trace 1 run. Half of the timed phase runs untraced (the
// reference for the tracing overhead and the source of the wall-clock loop
// and host counters), half traced with a CPU profile. Then layer probes measure what
// the loop cannot: counters of every program on the scalable machine, the
// rival protocols, the sharded engine, event streaming, snapshots and the
// job runner.
func traced(b *bench, e env, d time.Duration) (map[string]float64, error) {
	v := map[string]float64{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := stealSeconds()
	plain := b.phase(func() { e.loop(b, d/2) })
	steal := stealSeconds() - s0
	runtime.ReadMemStats(&m1)
	n := float64(max(1, len(plain.opMs)+len(plain.forkMs)))
	v["loop.op_ms_p50"] = percentile(plain.opMs, 0.5)
	v["loop.op_ms_p90"] = percentile(plain.opMs, 0.9)
	v["loop.ops_per_s"] = float64(len(plain.opMs)) / plain.wall.Seconds()
	v["host.steal_share"] = steal / (plain.wall.Seconds() * float64(runtime.NumCPU()))
	v["host.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
	v["host.allocs"] = float64(m1.Mallocs-m0.Mallocs) / n
	v["host.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / n

	profPath := scratchPath(b.o, ".cpu.pprof")
	stop, err := cpuProfile(profPath)
	if err != nil {
		return nil, err
	}
	b.tr.setOn(true)
	tph := b.phase(func() { e.loop(b, d/2) })
	if err := stop(); err != nil {
		return nil, err
	}
	v["trace.overhead"] = perOp(tph) / perOp(plain)
	shares, err := profShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, bk := range profBuckets {
		v["prof."+bk] = shares[bk]
	}

	progs := e.programs()
	probeCounters(b, progs, v)
	probeRivals(b, progs[:min(2, len(progs))], v)
	// Span-derived layer times come from the loop and the probes above;
	// the probes below run engines and options the workload does not.
	spanMetrics(b.tr.snapshot(), v)

	first := progs[0]
	v["sim.shard_overhead"] = probeShards(b, first)
	v["obs.stream_overhead"] = probeStream(b, first)
	probeSnapshot(b, first, v)
	jobs := tph.jobs
	if !hasFork(jobs) {
		rj, err := probeRunner(b, first)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, rj...)
	}
	runnerMetrics(b, jobs, v)

	if err := writeSpans(scratchPath(b.o, ".spans.json"), hostInfo(b.o), b.tr.snapshot()); err != nil {
		return nil, err
	}
	b.mu.Lock()
	v["error_rate"] = float64(b.failed) / float64(max(1, b.attempted))
	b.mu.Unlock()
	return v, nil
}

// perOp is a phase's CPU time per completed operation, in ms.
func perOp(ph phaseResult) float64 {
	return ms(ph.cpu) / float64(max(1, len(ph.opMs)+len(ph.forkMs)))
}

func hasFork(jobs []jobRecord) bool {
	for _, j := range jobs {
		if j.fork {
			return true
		}
	}
	return false
}

// spanMetrics derives the layer times from the recorded spans.
func spanMetrics(spans []span, v map[string]float64) {
	v["workload.build_ms"] = median(durationsMs(spans, "workload.build"))
	v["core.new_ms"] = median(durationsMs(spans, "core.new"))
	v["core.run_ms"] = median(durationsMs(spans, "core.run"))
	v["verify.ms"] = median(durationsMs(spans, "verify"))
	for _, p := range rivalProtocols {
		v[p+".run_ms"] = median(durationsMs(spans, p+".run"))
	}
	// verify.share is verification's part of the cells it ran in.
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var verifyNs, cellNs int64
	for _, s := range spans {
		if s.Name != "verify" || s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		verifyNs += s.EndNs - s.StartNs
		cellNs += p.EndNs - p.StartNs
	}
	if cellNs > 0 {
		v["verify.share"] = float64(verifyNs) / float64(cellNs)
	}
}

// coreTotals sums a pass's scalable-machine counters.
type coreTotals struct {
	commits, violations, instr   uint64
	breakdown                    stats.Breakdown
	stalled, dirMisses, forwards uint64
	cache                        struct{ hits, misses, evictions, spills, invalidations uint64 }
	msgs, bytes, hops, protoMsgs uint64
	runNs                        int64
}

func (t *coreTotals) add(r *tcc.Results, run time.Duration) {
	t.commits += r.Commits
	t.violations += r.Violations
	t.instr += r.Instr
	for i := range t.breakdown {
		t.breakdown[i] += r.Breakdown[i]
	}
	t.stalled += r.StalledLoads
	t.dirMisses += r.DirCacheMisses
	t.forwards += r.Forwards
	t.cache.hits += r.CacheStats.Hits
	t.cache.misses += r.CacheStats.Misses
	t.cache.evictions += r.CacheStats.Evictions
	t.cache.spills += r.CacheStats.Spills
	t.cache.invalidations += r.CacheStats.Invalidations
	for _, m := range r.Traffic.MsgsByClass {
		t.msgs += m
	}
	t.bytes += r.Traffic.TotalBytes()
	t.hops += r.Traffic.TotalHops
	for _, m := range r.MsgCounts {
		t.protoMsgs += m
	}
	t.runNs += int64(run)
}

// probeCounters runs each program once on the scalable machine and reports
// the summed core, cache and mesh counters of that pass.
func probeCounters(b *bench, progs []cell, v map[string]float64) {
	var t coreTotals
	for _, c := range progs {
		b.op(kindOp, "probe", c.String(), func(sp int) (uint64, error) {
			out, err := runCell(b.tr, c, sp)
			if err != nil {
				return 0, err
			}
			if out.violations != 0 {
				return 0, fmt.Errorf("%d serializability violations", out.violations)
			}
			t.add(out.res.Scalable, out.run)
			return 0, nil
		})
	}
	v["core.run_ns_per_msg"] = ratio(float64(t.runNs), float64(t.protoMsgs))
	v["core.commits"] = float64(t.commits)
	v["core.violations"] = float64(t.violations)
	v["core.commit_ratio"] = ratio(float64(t.commits), float64(t.commits+t.violations))
	total := float64(t.breakdown.Total())
	v["core.breakdown.useful"] = ratio(float64(t.breakdown[stats.Useful]), total)
	v["core.breakdown.cache_miss"] = ratio(float64(t.breakdown[stats.CacheMiss]), total)
	v["core.breakdown.idle"] = ratio(float64(t.breakdown[stats.Idle]), total)
	v["core.breakdown.commit"] = ratio(float64(t.breakdown[stats.Commit]), total)
	v["core.breakdown.violation"] = ratio(float64(t.breakdown[stats.Violation]), total)
	v["core.stalled_loads"] = float64(t.stalled)
	v["core.dir_cache_misses"] = float64(t.dirMisses)
	v["core.forwards"] = float64(t.forwards)
	v["cache.hits"] = float64(t.cache.hits)
	v["cache.misses"] = float64(t.cache.misses)
	v["cache.miss_ratio"] = ratio(float64(t.cache.misses), float64(t.cache.hits+t.cache.misses))
	v["cache.evictions"] = float64(t.cache.evictions)
	v["cache.spills"] = float64(t.cache.spills)
	v["cache.invalidations"] = float64(t.cache.invalidations)
	v["mesh.msgs"] = float64(t.msgs)
	v["mesh.bytes"] = float64(t.bytes)
	v["mesh.bytes_per_instr"] = ratio(float64(t.bytes), float64(t.instr))
	v["mesh.hops"] = float64(t.hops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeRivals runs each program on every rival protocol, counting the heap
// allocations of construction plus run.
func probeRivals(b *bench, progs []cell, v map[string]float64) {
	for _, proto := range rivalProtocols {
		var allocs []float64
		var commits, violations uint64
		for _, p := range progs {
			c := p
			c.protocol, c.shards = proto, 0
			b.op(kindOp, "probe", c.String(), func(sp int) (uint64, error) {
				prog, err := c.program()
				if err != nil {
					return 0, err
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				var sys tcc.ProtocolSystem
				if _, err := b.tr.timed(proto+".new", c.String(), sp, func() (err error) {
					sys, err = tcc.NewSystemFor(proto, c.config(), prog)
					return err
				}); err != nil {
					return 0, err
				}
				var res *tcc.ProtocolResults
				if _, err := b.tr.timed(proto+".run", c.String(), sp, func() (err error) {
					res, err = sys.Run()
					return err
				}); err != nil {
					return 0, err
				}
				runtime.ReadMemStats(&m1)
				allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
				if n := len(res.Verify()); n != 0 {
					return 0, fmt.Errorf("%d serializability violations", n)
				}
				commits += res.Summary.Commits
				violations += res.Summary.Violations
				return 0, nil
			})
		}
		v[proto+".allocs_per_run"] = median(allocs)
		v[proto+".commit_ratio"] = ratio(float64(commits), float64(commits+violations))
	}
}

// probeShards times Run of one program on the sequential engine and on the
// sharded engine with two workers, and returns the ratio of the medians.
// The two engines' summaries differ by design (the sharded engine's window
// structure), so each side is only checked against its own first run.
func probeShards(b *bench, c cell) float64 {
	var runs [2][]float64
	var first [2][]byte
	for rep := 0; rep < probeRepeats; rep++ {
		for k, shards := range []int{0, 2} {
			cc := c
			cc.shards = shards
			b.op(kindOp, "probe", cc.String(), func(sp int) (uint64, error) {
				out, err := runCell(b.tr, cc, sp)
				if err != nil {
					return 0, err
				}
				if first[k] == nil {
					first[k] = out.summary
				}
				if out.violations != 0 || !bytes.Equal(out.summary, first[k]) {
					return 0, fmt.Errorf("shard probe run is not serializable or not repeatable")
				}
				runs[k] = append(runs[k], ms(out.run))
				return 0, nil
			})
		}
	}
	return ratio(median(runs[1]), median(runs[0]))
}

// probeStream times tcc.RunJob on one spec with its event stream sent to
// io.Discard and with no event sink, and returns the ratio of the medians.
// Observation is passive, so both must give the same summary.
func probeStream(b *bench, c cell) float64 {
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = runSpec(c)
	var runs [2][]float64
	var want []byte
	for rep := 0; rep < probeRepeats; rep++ {
		for k, w := range []io.Writer{nil, io.Discard} {
			b.op(kindOp, "probe", fmt.Sprintf("stream%d %s", k, c), func(sp int) (uint64, error) {
				opts := &tcc.RunJobOptions{EventWriter: w}
				var out *tcc.JobOutput
				d, err := b.tr.timed("tcc.run_job", c.String(), sp, func() (err error) {
					out, err = tcc.RunJob(context.Background(), spec, opts)
					return err
				})
				if err != nil {
					return 0, err
				}
				r := out.Result
				if r.Serializable == nil || !*r.Serializable {
					return 0, fmt.Errorf("run job is not serializable")
				}
				if want == nil {
					want = r.Summary
				}
				if !bytes.Equal(r.Summary, want) {
					return 0, fmt.Errorf("summary with events %s differs from %s", r.Summary, want)
				}
				runs[k] = append(runs[k], ms(d))
				return 0, nil
			})
		}
	}
	return ratio(median(runs[1]), median(runs[0]))
}

// probeSnapshot runs one program plainly and with RunCheckpointed
// (marshalling every snapshot), then unmarshals the last snapshot, restores
// it with tcc.RestoreSystem and runs the rest. Both the checkpointed and
// the resumed run must reproduce the plain run's summary.
func probeSnapshot(b *bench, c cell, v map[string]float64) {
	op := c.String()
	b.op(kindOp, "probe", "snapshot "+op, func(sp int) (uint64, error) {
		cfg := c.config()
		build := func() (*tcc.System, tcc.Program, error) {
			prog, err := c.program()
			if err != nil {
				return nil, nil, err
			}
			sys, err := tcc.NewSystem(cfg, prog)
			return sys, prog, err
		}
		sys, _, err := build()
		if err != nil {
			return 0, err
		}
		var plain, ckd *tcc.Results
		tPlain, err := b.tr.timed("snapshot.plain_run", op, sp, func() (err error) {
			plain, err = sys.Run()
			return err
		})
		if err != nil {
			return 0, err
		}
		if sys, _, err = build(); err != nil {
			return 0, err
		}
		var last []byte
		var marshal []float64
		tCk, err := b.tr.timed("snapshot.checkpointed_run", op, sp, func() (err error) {
			ckd, err = sys.RunCheckpointed(uint64(plain.Cycles)/4+1, func(ck *tcc.Checkpoint) error {
				d, err := b.tr.timed("snapshot.marshal", op, sp, func() (err error) {
					last, err = json.Marshal(ck)
					return err
				})
				marshal = append(marshal, ms(d))
				return err
			})
			return err
		})
		if err != nil {
			return 0, err
		}
		if last == nil {
			return 0, fmt.Errorf("no snapshot was taken")
		}
		var ck tcc.Checkpoint
		tUn, err := b.tr.timed("snapshot.unmarshal", op, sp, func() error { return json.Unmarshal(last, &ck) })
		if err != nil {
			return 0, err
		}
		prog, err := c.program()
		if err != nil {
			return 0, err
		}
		var restored *tcc.System
		tRe, err := b.tr.timed("snapshot.restore", op, sp, func() (err error) {
			restored, err = tcc.RestoreSystem(cfg, prog, &ck)
			return err
		})
		if err != nil {
			return 0, err
		}
		resumed, err := restored.Run()
		if err != nil {
			return 0, err
		}
		want, _ := json.Marshal(plain.Summary())
		for name, r := range map[string]*tcc.Results{"checkpointed": ckd, "resumed": resumed} {
			got, _ := json.Marshal(r.Summary())
			if !bytes.Equal(got, want) {
				return 0, fmt.Errorf("%s run summary %s differs from plain run %s", name, got, want)
			}
		}
		v["snapshot.marshal_ms"] = median(marshal)
		v["snapshot.unmarshal_ms"] = ms(tUn)
		v["snapshot.restore_ms"] = ms(tRe)
		v["snapshot.run_overhead"] = ratio(float64(tCk), float64(tPlain))
		return 0, nil
	})
}

// probeRunner submits one program through a fresh in-process server as
// forkEvery jobs and one fork, for workloads that do not drive the runner.
func probeRunner(b *bench, c cell) ([]jobRecord, error) {
	e, err := newJobsEnv(b, []cell{c}, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	ph := b.phase(func() { e.client(b, 0, time.Now().Add(time.Hour), forkEvery) })
	return ph.jobs, nil
}

// runnerMetrics reports the runner, event-stream and manifest measurements
// of the observed jobs.
func runnerMetrics(b *bench, recs []jobRecord, v map[string]float64) {
	var submit, result, wait, exec, overhead, fork, sse, events, ckN, ckBytes []float64
	for _, r := range recs {
		submit = append(submit, r.submitMs)
		result = append(result, r.resultMs)
		if r.fork {
			fork = append(fork, r.jobMs)
			continue
		}
		wait = append(wait, r.queueWaitMs)
		exec = append(exec, r.execMs)
		overhead = append(overhead, r.jobMs-r.queueWaitMs-r.execMs)
		sse = append(sse, float64(r.sseBytes))
		events = append(events, float64(r.eventBytes))
		ckN = append(ckN, float64(r.ckCount))
		ckBytes = append(ckBytes, float64(r.ckBytes))
	}
	v["runner.submit_ms"] = median(submit)
	v["runner.queue_wait_ms_p50"] = median(wait)
	v["runner.exec_ms_p50"] = median(exec)
	v["runner.result_ms"] = median(result)
	v["runner.sse_bytes"] = mean(sse)
	v["runner.http_overhead_ms_p50"] = median(overhead)
	v["runner.fork_ms_p50"] = median(fork)
	v["obs.event_bytes"] = mean(events)
	v["snapshot.count"] = mean(ckN)
	v["snapshot.bytes"] = mean(ckBytes)
	b.mu.Lock()
	v["runner.refused"] = float64(b.refusedN)
	b.mu.Unlock()
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
