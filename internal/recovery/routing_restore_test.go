package recovery

import (
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/shard"
	"topkmon/internal/window"
)

// TestDataShardedRoutingRestore round-trips a data-partitioned monitor
// whose tuple routing has diverged from the default: the bucket table is
// rotated mid-lineage, so every resident tuple becomes a pinned placement
// the checkpoint must carry and the restore must reinstate BEFORE the
// tail replays — otherwise re-ingested tuples land on the wrong shards
// and the per-engine query imports reference tuples those engines never
// indexed. The driver asserts the restored monitor stays byte-identical
// to a never-crashed reference engine through the pins' expiration.
func TestDataShardedRoutingRestore(t *testing.T) {
	const shards = 3
	opts := core.Options{Dims: 2, Window: window.Count(300), TargetCells: 64}
	dir := t.TempDir()

	inner, err := shard.NewDataWithConfig(opts, shards, shard.RebalanceConfig{})
	if err != nil {
		t.Fatalf("NewDataWithConfig: %v", err)
	}
	g, err := NewGuard(inner, dir, GuardOptions{Every: 4})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	d := newDriver(t, opts, g)
	specs := specsFor(opts)
	d.register(specs[0])
	d.register(specs[2]) // threshold: no router cache, its deltas are the shards' union
	d.register(specs[3])
	for i := 0; i < 3; i++ {
		d.cycle(60, 0)
	}

	// Rotate the table: every bucket moves one shard over, every live
	// tuple diverges from it. The next checkpoint (cycle 4, Every=4) must
	// persist both; the cycles after it live only in the WAL and replay
	// through the restored routing.
	route, pins := inner.ExportTupleRouting()
	if len(pins) != 0 {
		t.Fatalf("default routing exported %d pins, want 0", len(pins))
	}
	rot := make([]int, len(route))
	for b := range rot {
		rot[b] = (route[b] + 1) % shards
	}
	if err := inner.RestoreTupleRouting(rot, nil); err != nil {
		t.Fatalf("rotate routing: %v", err)
	}
	for i := 0; i < 3; i++ {
		d.cycle(60, 0)
	}
	d.checkState()

	if err := g.Abandon(); err != nil {
		t.Fatalf("abandon: %v", err)
	}
	restored, _, err := Restore(dir, RestoreOptions{Every: 4})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	d.mon = restored
	d.checkState()

	// Keep streaming past a full window turnover: the pinned tuples
	// expire (each must reach the shard that indexed it) and fresh
	// arrivals route through the rotated table.
	for i := 0; i < 7; i++ {
		d.cycle(60, 0)
	}
	d.checkState()
	if err := restored.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
