package tcc

import (
	"context"
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

// TestRunGuardedRecoversPanic: a simulation that panics on the guarded
// goroutine fails its run instead of the process.
func TestRunGuardedRecoversPanic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := runGuarded(ctx, func() (*ProtocolResults, error) { panic("model bug") })
	if err == nil || !strings.Contains(err.Error(), "model bug") {
		t.Fatalf("error %v, want the panic text", err)
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
