package difftest

import (
	"testing"
	"time"

	"topkmon/internal/admission"
	"topkmon/internal/core"
)

// TestOverloadDifferential is the acceptance run for admission control:
// twenty seeded ~10x-overload workloads against every execution family,
// each asserting the admitted-subsequence transcript contract, a
// non-Critical end state once load subsides, and memory within the limit.
// Decisions themselves are timing-dependent; the contract holds for
// whatever they were, and the cross-seed shed total proves the governor
// actually interfered (a vacuous differential would pass trivially).
func TestOverloadDifferential(t *testing.T) {
	const memLimit = int64(1) << 40
	modes := []struct {
		name  string
		build func(core.Options) (core.StreamMonitor, error)
	}{
		{"engine", engineBuild},
		{"query-sharded", shardedBuild(3)},
		{"data-sharded", dataShardedBuild(3)},
	}
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			var shed int64
			for seed := int64(1); seed <= seeds; seed++ {
				run := GenOverload(seed)
				rep, err := ReplayOverload(run, OverloadConfig{
					Build: m.build,
					Admission: admission.Config{
						Seed:          seed,
						LowWatermark:  0.3,
						HighWatermark: 0.6,
						MemLimit:      memLimit,
					},
					Depth:      4,
					ApplyDelay: 300 * time.Microsecond,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Snapshot.State == admission.Critical {
					t.Fatalf("seed %d: still Critical after load subsided: %+v", seed, rep.Snapshot)
				}
				if rep.Snapshot.EngineBytes > memLimit {
					t.Fatalf("seed %d: engine footprint %d exceeded the %d limit", seed, rep.Snapshot.EngineBytes, memLimit)
				}
				shed += rep.Snapshot.ShedBatches
			}
			if shed == 0 {
				t.Fatal("sustained overload never shed a batch: the governor sat idle and the differential is vacuous")
			}
		})
	}
}

// TestOverloadCriticalDifferential forces the Critical state through the
// memory watermark (a limit far below any live Go heap) and asserts the
// same transcript contract over the AdmitDeletions path: stripped cycles
// replay as empty-arrival steps, so expiry and deletions still match the
// reference byte for byte.
func TestOverloadCriticalDifferential(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	var stripped int64
	for seed := int64(1); seed <= seeds; seed++ {
		run := GenOverload(seed)
		rep, err := ReplayOverload(run, OverloadConfig{
			Build:     engineBuild,
			Admission: admission.Config{Seed: seed, MemLimit: 1 << 20},
			Depth:     4,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stripped += rep.Snapshot.StrippedBatches
	}
	if stripped == 0 {
		t.Fatal("memory watermark never stripped arrivals: the Critical path went unexercised")
	}
}
