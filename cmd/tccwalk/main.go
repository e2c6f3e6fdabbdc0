// Command tccwalk replays the paper's protocol walkthroughs (Figure 2 and
// both Figure 3 scenarios) on a three-node machine and prints the protocol
// events — TID grants, skips, probes, marks, commits, invalidations,
// violations, write-backs — message by message, annotated with simulated
// cycle times. It is the executable version of Section 2.2's examples.
//
// Usage:
//
//	tccwalk                      # figure2
//	tccwalk -scenario figure3-conflict
//	tccwalk -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scalabletcc/internal/core"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/scenario"
	"scalabletcc/internal/verify"
)

func main() {
	var (
		name = flag.String("scenario", "figure2", "scenario to replay (see -list)")
		list = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("scenarios:")
		for _, n := range scenario.Names() {
			fmt.Printf("  %s\n", n)
		}
		return
	}
	if err := run(os.Stdout, *name); err != nil {
		fmt.Fprintln(os.Stderr, "tccwalk:", err)
		os.Exit(1)
	}
}

// run replays the named scenario and writes the walkthrough to w.
func run(w io.Writer, name string) error {
	script, ok := scenario.ByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -list)", name)
	}

	cfg := core.DefaultConfig(script.Procs())
	cfg.MaxCycles = 10_000_000
	sys, err := core.NewSystem(cfg, script)
	if err != nil {
		return err
	}
	sys.CollectCommitLog(true)
	sys.Observe(obs.FuncObserver(func(e obs.Event) {
		line, ok := obs.Line(e)
		// The walkthrough hides background noise on the helper processor.
		if !ok || (strings.Contains(line, "p2 ") && !strings.Contains(line, "COMMIT")) {
			return
		}
		fmt.Fprintln(w, line)
	}))

	fmt.Fprintf(w, "=== %s on a %d-node Scalable TCC machine ===\n", script.ScriptName, script.Procs())
	fmt.Fprintf(w, "addresses: %#x homed at dir0, %#x at dir1, %#x at dir2\n\n",
		scenario.AddrD0, scenario.AddrD1, scenario.AddrD2)

	res, err := sys.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n=== outcome ===\n")
	fmt.Fprintf(w, "cycles: %d   commits: %d   violations: %d   owner forwards: %d\n",
		res.Cycles, res.Commits, res.Violations, res.Forwards)
	if v := verify.Check(res.CommitLog); len(v) != 0 {
		fmt.Fprintf(w, "serializability: %d VIOLATIONS (protocol bug)\n", len(v))
		return fmt.Errorf("%d serializability violations", len(v))
	}
	fmt.Fprintln(w, "serializability: OK — the committed reads match the TID-serial order")
	return nil
}
