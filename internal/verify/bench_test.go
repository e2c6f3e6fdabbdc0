package verify_test

import (
	"testing"

	"scalabletcc/internal/verify"
	"scalabletcc/tcc"
)

// commitLog runs one paper-mix cell (Table 3 app, 32 processors, scale 0.05)
// with the commit log on.
func commitLog(b *testing.B, app string) []verify.Record {
	b.Helper()
	cfg := tcc.DefaultConfig(32)
	cfg.CollectCommitLog = true
	res, err := tcc.Run(cfg, tcc.MustProfile(app).Scale(0.05).Build(cfg.Procs, cfg.Seed))
	if err != nil {
		b.Fatal(err)
	}
	return res.CommitLog
}

// BenchmarkCheck times the serializability replay of one run's commit log.
func BenchmarkCheck(b *testing.B) {
	for _, app := range []string{"barnes", "radix"} {
		log := commitLog(b, app)
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := verify.Check(log); len(v) != 0 {
					b.Fatal(v[0])
				}
			}
		})
	}
}
