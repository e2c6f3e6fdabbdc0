package tcc

import (
	"fmt"
	"strings"
	"testing"
)

// crashingMachines are machine overrides the job schema decodes but no
// model can be built or run on: each panicked in cache.New, mesh.New or the
// kernel ("event scheduled in the past") before admission refused them.
var crashingMachines = []string{
	`{"l2_ways":3}`,
	`{"l1_size":100}`,
	`{"link_bytes_per_cycle":-1}`,
	`{"hop_latency":-1}`,
	`{"mem_latency":-1}`,
	`{"dir_latency":-1}`,
	`{"dir_cache_entries":-1}`,
	`{"starve_retain":-1}`,
}

// crashingSpec is a run-job document for protocol on machine.
func crashingSpec(protocol, machine string) []byte {
	return []byte(fmt.Sprintf(`{"schema":"scalabletcc/job","version":1,"kind":"run",`+
		`"run":{"protocol":%q,"app":"hotspot","procs":4,"scale":0.05,"machine":%s}}`, protocol, machine))
}

// TestAdmissionRejectsCrashingMachines: every machine that would crash a
// model is refused by ValidateJobSpec and by NewSystemFor, for every
// protocol, with an error and without a panic.
func TestAdmissionRejectsCrashingMachines(t *testing.T) {
	for _, protocol := range ProtocolNames() {
		for _, machine := range crashingMachines {
			t.Run(protocol+machine, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				spec, err := DecodeJobSpec(crashingSpec(protocol, machine))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if err := ValidateJobSpec(spec); err == nil {
					t.Error("ValidateJobSpec admitted the spec")
				}
				prog := MustProfile("hotspot").Scale(0.05).Build(4, 1)
				if _, err := NewSystemFor(protocol, runConfig(spec.Run), prog); err == nil {
					t.Error("NewSystemFor built the machine")
				}
			})
		}
	}
}

// TestAdmissionRejectsShardedSampling: the epoch engine has no sampler, so
// a run spec asking for both is refused at admission rather than failing
// once it runs. The same spec on the sequential engine is admitted.
func TestAdmissionRejectsShardedSampling(t *testing.T) {
	for _, tc := range []struct {
		machine string
		admit   bool
	}{
		{`{"shards":2}`, false},
		{`{"shards":0}`, true},
	} {
		spec, err := DecodeJobSpec([]byte(`{"schema":"scalabletcc/job","version":1,"kind":"run",` +
			`"run":{"app":"hotspot","procs":4,"scale":0.05,"sample_every":500,"machine":` + tc.machine + `}}`))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.machine, err)
		}
		err = ValidateJobSpec(spec)
		if tc.admit && err != nil {
			t.Errorf("%s: refused: %v", tc.machine, err)
		}
		if !tc.admit && (err == nil || !strings.Contains(err.Error(), "sampling requires the sequential engine")) {
			t.Errorf("%s: ValidateJobSpec = %v, want the sampler refusal", tc.machine, err)
		}
	}
}

// TestAdmissionRejectsRivalSampling: only the scalable machine has a
// sampler, so a run spec asking a rival protocol to sample is refused at
// admission (a 400 from tccd) instead of failing once its machine is built.
func TestAdmissionRejectsRivalSampling(t *testing.T) {
	for _, protocol := range []string{"tl2", "eager", "baseline"} {
		spec, err := DecodeJobSpec([]byte(`{"schema":"scalabletcc/job","version":1,"kind":"run",` +
			`"run":{"app":"hotspot","procs":4,"scale":0.05,"sample_every":500,"protocol":"` + protocol + `"}}`))
		if err != nil {
			t.Fatalf("%s: decode: %v", protocol, err)
		}
		if err := ValidateJobSpec(spec); err == nil || !strings.Contains(err.Error(), "sampling requires the scalable machine") {
			t.Errorf("%s: ValidateJobSpec = %v, want the sampler refusal", protocol, err)
		}
	}
}

// FuzzJobSpec: whatever arrives on the wire, admission either refuses it
// with an error, or admits a run spec whose machine NewSystemFor builds
// without an error or a panic. The harness skips admitted specs too large
// to build cheaply (above 64 processors, scale 0.1, or 32K lines in either
// cache); admission itself does not bound size.
func FuzzJobSpec(f *testing.F) {
	for _, protocol := range ProtocolNames() {
		for _, machine := range crashingMachines {
			f.Add(crashingSpec(protocol, machine))
		}
		f.Add(crashingSpec(protocol, `{"line_size":64,"l1_size":16384,"l1_ways":2,"torus":true}`))
	}
	f.Add([]byte(`{"schema":"scalabletcc/job","version":1,"kind":"run",` +
		`"run":{"app":"barnes","procs":16,"scale":0.01,"machine":{"shards":4}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data)
		if err != nil || ValidateJobSpec(spec) != nil || spec.Run == nil {
			return
		}
		r := spec.Run
		cfg := runConfig(r)
		if r.Procs > 64 || r.Scale == 0 || r.Scale > 0.1 ||
			cfg.L1Size/cfg.LineSize > 1<<15 || cfg.L2Size/cfg.LineSize > 1<<15 {
			t.Skip("too large to build cheaply")
		}
		protocol := r.Protocol
		if protocol == "" {
			protocol = "tcc"
		}
		prog := MustProfile(r.App).Scale(r.Scale).Build(r.Procs, cfg.Seed)
		if _, err := NewSystemFor(protocol, cfg, prog); err != nil {
			t.Fatalf("admitted spec does not build: %v", err)
		}
	})
}
