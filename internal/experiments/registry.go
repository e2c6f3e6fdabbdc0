// The experiment registry: one named entry per paper artifact, each
// coupling its plan and reduction to its printer. cmd/tccbench resolves
// names against this table instead of hard-coding a switch, and "all" is
// simply the registry in order.

package experiments

import (
	"io"

	"scalabletcc/tcc"
)

// Experiment is a named entry of the registry. Its plan declares the job
// matrix (none for the static tables 1 and 2), and print reduces the
// index-ordered results of the whole matrix and prints the rows.
type Experiment struct {
	Name  string
	Title string
	plan
	print func(o Options, jobs []Job, outs []RunResult, w io.Writer) error
}

// show registers m under title, printing its reduced rows with print.
func show[R any](m matrix[R], title string, print func(io.Writer, R)) Experiment {
	return Experiment{Name: m.name, Title: title, plan: m.plan,
		print: func(o Options, jobs []Job, outs []RunResult, w io.Writer) error {
			rows, err := m.reduce(o, jobs, outs)
			if err != nil {
				return err
			}
			print(w, rows)
			return nil
		}}
}

// static registers a table that runs no simulation.
func static(name, title string, print func(o Options, w io.Writer)) Experiment {
	return Experiment{Name: name, Title: title, plan: plan{name: name},
		print: func(o Options, _ []Job, _ []RunResult, w io.Writer) error {
			print(o, w)
			return nil
		}}
}

// Registry returns every experiment in presentation order (tables, then
// figures, then ablations).
func Registry() []Experiment {
	return []Experiment{
		static("table1", "coherence-message vocabulary", func(_ Options, w io.Writer) { Table1(w) }),
		static("table2", "simulated-architecture parameters", func(o Options, w io.Writer) {
			Table2(w, tcc.DefaultConfig(o.MaxProcs))
		}),
		show(table3, "application fingerprints", PrintTable3),
		show(fig6, "single-processor breakdown", PrintFig6),
		show(fig7, "speedup scaling 1-64 CPUs", PrintFig7),
		show(fig8, "communication-latency sensitivity", PrintFig8),
		show(fig9, "remote traffic by class", PrintFig9),
		show(protocols, "protocol head-to-head: TCC vs baseline vs TL2 vs eager", PrintProtocolSweep),
		show(baseline, "bus-serialized commit vs parallel commit (A1)", PrintBaseline),
		show(granularity, "word vs line conflict detection (A2)", PrintGranularity),
		show(probes, "deferred vs repeated probing (A3)", PrintProbes),
		show(writeback, "write-back vs write-through commit (A4)", PrintWriteBack),
		show(dircache, "directory-cache capacity (A5)", PrintDirCache),
	}
}

// ByName resolves one experiment from the registry.
func ByName(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the registry's experiment names in order.
func Names() []string {
	var names []string
	for _, e := range Registry() {
		names = append(names, e.Name)
	}
	return names
}
