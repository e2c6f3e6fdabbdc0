// The protocol head-to-head: the same contended workload through every
// registered machine model — the comparison the paper argues by construction
// (scalable lazy commit vs eager detection) but never measures. TL2 adds the
// global-clock serialization point, the eager HTM adds access-time NACK
// aborts, and the bus baseline adds commit serialization; running all four
// over identical traffic turns the related-work predictions into one table.

package experiments

import (
	"fmt"
	"io"

	"scalabletcc/internal/stats"
)

// ProtoCell is one (app, protocol, procs) measurement of the head-to-head
// sweep.
type ProtoCell struct {
	App        string
	Protocol   string
	Procs      int
	Cycles     uint64
	Speedup    float64 // vs the same (app, protocol) at the first sweep point
	Commits    uint64
	Violations uint64
	Breakdown  stats.Breakdown
}

var protocols = matrix[[]ProtoCell]{
	plan: plan{name: "protocols", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr([]string{"hotspot"}) {
			for _, proto := range o.protocolsOr() {
				for _, procs := range o.Procs {
					jobs = append(jobs, Job{
						App:      app,
						Procs:    procs,
						Protocol: proto,
						Knobs:    map[string]any{"protocol": proto},
					})
				}
			}
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]ProtoCell, error) {
		cells := make([]ProtoCell, len(jobs))
		for i, j := range jobs {
			s := outs[i].Proto.Summary
			base := outs[i-i%len(o.Procs)].Proto.Summary // the series' first sweep point
			c := ProtoCell{
				App:        j.App,
				Protocol:   j.protocol(),
				Procs:      j.Procs,
				Cycles:     s.Cycles,
				Commits:    s.Commits,
				Violations: s.Violations,
				Breakdown:  s.Breakdown,
			}
			if s.Cycles > 0 {
				c.Speedup = float64(base.Cycles) / float64(s.Cycles)
			}
			cells[i] = c
		}
		return cells, nil
	},
}

// ProtocolSweep runs opts.Apps (default: the fig7 contention workload,
// hotspot) across opts.Procs for every protocol in opts.Protocols (default:
// the full registry), all through the unified RunProtocol API.
func ProtocolSweep(opts Options) ([]ProtoCell, error) { return protocols.run(opts) }

// PrintProtocolSweep renders the head-to-head table, one row per
// (app, protocol, procs).
func PrintProtocolSweep(w io.Writer, cells []ProtoCell) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tProtocol\tCPUs\tSpeedup\tCycles\tCommits\tViolations\tBreakdown")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%d\t%d\t%s\n",
			c.App, c.Protocol, c.Procs, c.Speedup, c.Cycles, c.Commits, c.Violations,
			BreakdownString(c.Breakdown))
	}
	tw.Flush()
}
