package chaostest

import (
	"testing"

	"mobidx/internal/leakcheck"
	"mobidx/internal/pager/crashtest"
)

// TestIngestCrashSweep kills an ingest shard at every write/sync boundary
// of a folding workload under each crash mode and requires
// empty-or-complete recovery — never a torn run — plus oracle-exact
// answers and continued folding afterwards. Both recovery shapes (live
// delta replayed, freshly merged image) must be observed.
func TestIngestCrashSweep(t *testing.T) {
	for _, mode := range []crashtest.Mode{crashtest.KeepAll, crashtest.LoseUnsynced, crashtest.TearLast} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			leakcheck.Check(t)
			delta, clean, err := RunIngestCrashSweep(mode)
			if err != nil {
				t.Fatal(err)
			}
			if delta == 0 || clean == 0 {
				t.Fatalf("sweep missed a recovery shape: %d delta recoveries, %d clean", delta, clean)
			}
			t.Logf("%s: %d delta recoveries, %d clean", mode, delta, clean)
		})
	}
}
