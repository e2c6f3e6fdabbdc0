package scalabletcc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"scalabletcc/tcc"
)

// The checkpoint fixture pins the bytes of every snapshot RunCheckpointed
// emits for 16-processor volrend in five machine configurations, so a
// change to any per-line table (directory entries, memory lines, the
// directory cache, read sets, the cache's overflow area) that moves a
// serialized field or its order fails here, even when the run's results do
// not move. A row records the SHA-256 of each snapshot's JSON encoding, in
// emission order.
//
// Regenerate with:
//
//	go test -run TestGoldenCheckpointFixture -update .
const goldenCheckpointPath = "testdata/golden_checkpoint.json"

// goldenCheckpointRow is one configuration's snapshot digests.
type goldenCheckpointRow struct {
	Name      string   `json:"name"`
	App       string   `json:"app"`
	Procs     int      `json:"procs"`
	Scale     float64  `json:"scale"`
	Seed      uint64   `json:"seed"`
	Every     uint64   `json:"every"`
	Snapshots []string `json:"snapshots_sha256"`
}

// goldenCheckpointConfigs names the five configurations and how each
// departs from the default machine.
func goldenCheckpointConfigs() ([]goldenCheckpointRow, []func(*tcc.Config)) {
	mutate := []func(*tcc.Config){
		func(*tcc.Config) {},
		func(c *tcc.Config) { c.WriteThroughCommit = true },
		func(c *tcc.Config) { c.DirCacheEntries = 128 },
		func(c *tcc.Config) { c.LineGranularity = true },
		// A 1 KB 8-way L2 has four sets: speculative lines pin every
		// way of a set often enough to spill into the overflow area.
		func(c *tcc.Config) { c.L1Size, c.L2Size = 512, 1<<10 },
	}
	var rows []goldenCheckpointRow
	for _, name := range []string{"write-back", "write-through", "dircache-128", "line-granularity", "small-cache"} {
		rows = append(rows, goldenCheckpointRow{
			Name: name, App: "volrend", Procs: 16, Scale: 0.05, Seed: 1, Every: 10000,
		})
	}
	return rows, mutate
}

func runGoldenCheckpointRow(t *testing.T, r goldenCheckpointRow, mutate func(*tcc.Config)) goldenCheckpointRow {
	t.Helper()
	cfg := tcc.DefaultConfig(r.Procs)
	cfg.Seed = r.Seed
	cfg.CollectCommitLog = true
	mutate(&cfg)
	prog := tcc.MustProfile(r.App).Scale(r.Scale).Build(r.Procs, r.Seed)
	sys, err := tcc.NewSystem(cfg, prog)
	if err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	_, err = sys.RunCheckpointed(r.Every, func(ck *tcc.Checkpoint) error {
		b, err := json.Marshal(ck)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		r.Snapshots = append(r.Snapshots, hex.EncodeToString(sum[:]))
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	return r
}

func TestGoldenCheckpointFixture(t *testing.T) {
	rows, mutate := goldenCheckpointConfigs()
	for i := range rows {
		rows[i] = runGoldenCheckpointRow(t, rows[i], mutate[i])
	}
	checkFixture(t, goldenCheckpointPath, rows, nil)
}
