package shard

import (
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// TestMigrationPreservesBehavior drives a single engine and a sharded
// monitor through the same stream while every cycle boundary migrates a
// query to another shard; updates, results and counters must stay
// identical to the never-migrating reference. This is the unit-level twin
// of the difftest forced-migration mode, with exact per-cycle assertions.
func TestMigrationPreservesBehavior(t *testing.T) {
	const (
		dims   = 4
		shards = 3
		cycles = 24
		rate   = 120
	)
	opts := core.Options{Dims: dims, Window: window.Count(1000), TargetCells: 256}
	ref, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	genRef := stream.NewGenerator(stream.IND, dims, 11)
	genSh := stream.NewGenerator(stream.IND, dims, 11)
	if _, err := ref.Step(0, genRef.Batch(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Step(0, genSh.Batch(1000, 0)); err != nil {
		t.Fatal(err)
	}
	refIDs := registerMixedQueries(t, ref, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, dims, 7), 12)
	shIDs := registerMixedQueries(t, sh, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, dims, 7), 12)

	for ts := int64(1); ts <= cycles; ts++ {
		refUpd, err := ref.Step(ts, genRef.Batch(rate, ts))
		if err != nil {
			t.Fatal(err)
		}
		shUpd, err := sh.Step(ts, genSh.Batch(rate, ts))
		if err != nil {
			t.Fatal(err)
		}
		diffUpdates(t, ts, refUpd, shUpd)

		// Every cycle one batch moves a top-k query (influence lists) and a
		// threshold query (query index) off their current shards, rotating
		// through the set: both export/import paths run on whatever state
		// the cycle just left.
		_, routes := sh.ExportRouting()
		shardOf := make(map[core.QueryID]int, len(routes))
		for _, r := range routes {
			shardOf[r.Global] = r.Shard
		}
		topkIdx := int(ts) % len(shIDs)
		if topkIdx%4 == 3 {
			topkIdx--
		}
		thrIdx := 3 + 4*(int(ts)%(len(shIDs)/4)) // registerMixedQueries: every 4th is a threshold
		var moves []QueryMove
		for _, id := range []core.QueryID{shIDs[topkIdx], shIDs[thrIdx]} {
			moves = append(moves, QueryMove{Query: id, Target: (shardOf[id] + 1 + int(ts)%(shards-1)) % shards})
		}
		before := sh.Migrations()
		if err := sh.MigrateQueries(moves); err != nil {
			t.Fatalf("cycle %d migrate %v: %v", ts, moves, err)
		}
		if got := sh.Migrations() - before; got != 2 {
			t.Fatalf("cycle %d: batch %v executed %d moves, want a top-k and a threshold move", ts, moves, got)
		}
		if err := sh.CheckInfluence(); err != nil {
			t.Fatalf("cycle %d after migration: %v", ts, err)
		}
	}

	for i, id := range refIDs {
		a, err := ref.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sh.Result(shIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(keysOf(a), keysOf(b)) {
			t.Fatalf("final result of q%d diverged", id)
		}
	}
	if got := sh.Migrations(); got == 0 {
		t.Fatal("no migrations recorded")
	}
	// The routing table and per-shard engines must agree on query counts.
	loads := sh.ShardLoads()
	total := 0
	for _, l := range loads {
		total += l.Queries
	}
	if total != sh.NumQueries() {
		t.Fatalf("shard loads count %d queries, monitor reports %d", total, sh.NumQueries())
	}
}

// TestMigrateQueryErrors: unknown queries, out-of-range targets, and
// self-migrations.
func TestMigrateQueryErrors(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16}
	sh, err := New(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	gen := stream.NewGenerator(stream.IND, 2, 1)
	if _, err := sh.Step(0, gen.Batch(50, 0)); err != nil {
		t.Fatal(err)
	}
	id := registerMixedQueries(t, sh, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, 2, 3), 1)[0]

	if err := sh.MigrateQuery(99, 1); err == nil {
		t.Fatal("migrating an unknown query should fail")
	}
	if err := sh.MigrateQuery(id, 2); err == nil {
		t.Fatal("out-of-range target should fail")
	}
	if err := sh.MigrateQuery(id, -1); err == nil {
		t.Fatal("negative target should fail")
	}
	before := sh.Migrations()
	for target := 0; target < 2; target++ {
		if err := sh.MigrateQuery(id, target); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly one of the two moves was a self-migration no-op.
	if got := sh.Migrations() - before; got != 1 {
		t.Fatalf("expected exactly 1 effective migration, got %d", got)
	}
	res, err := sh.Result(id)
	if err != nil || len(res) == 0 {
		t.Fatalf("query unusable after migrations: %v (%d entries)", err, len(res))
	}
}

// TestLeastLoadedPlacement: registrations spread deterministically by
// router-side load instead of hashing, and the placement view tracks
// unregistrations.
func TestLeastLoadedPlacement(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16}
	sh, err := NewWithConfig(opts, 3, Config{Placement: LeastLoadedPlacement{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	qg := stream.NewQueryGenerator(stream.FuncLinear, 2, 5)
	var ids []core.QueryID
	for i := 0; i < 9; i++ {
		id, err := sh.Register(core.QuerySpec{F: qg.Next(), K: 3, Policy: core.TMA})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// With zero cost history the tie-breaks degenerate to query counts,
	// so 9 registrations over 3 shards land 3-3-3.
	for _, l := range sh.ShardLoads() {
		if l.Queries != 3 {
			t.Fatalf("least-loaded placement unbalanced: %+v", sh.ShardLoads())
		}
	}
	for _, id := range ids[:3] {
		if err := sh.Unregister(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := sh.NumQueries(); n != 6 {
		t.Fatalf("NumQueries = %d, want 6", n)
	}
}

// TestAutoRebalanceMovesHotQueries: under a deliberately clumped placement
// (every query on shard 0) the cost-aware rebalancer must spread load:
// migrations happen, results stay correct, and the hot shard ends up with
// less attributed cost than it started with.
func TestAutoRebalanceMovesHotQueries(t *testing.T) {
	const shards = 4
	opts := core.Options{Dims: 4, Window: window.Count(800), TargetCells: 256}
	sh, err := NewWithConfig(opts, shards, Config{
		Placement: clumpPlacement{},
		Rebalance: RebalanceConfig{Interval: 3, Threshold: 1.05, MaxMoves: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ref, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}

	genSh := stream.NewGenerator(stream.IND, 4, 17)
	genRef := stream.NewGenerator(stream.IND, 4, 17)
	if _, err := sh.Step(0, genSh.Batch(800, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Step(0, genRef.Batch(800, 0)); err != nil {
		t.Fatal(err)
	}
	registerMixedQueries(t, sh, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, 4, 7), 16)
	registerMixedQueries(t, ref, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, 4, 7), 16)

	for ts := int64(1); ts <= 30; ts++ {
		refUpd, err := ref.Step(ts, genRef.Batch(100, ts))
		if err != nil {
			t.Fatal(err)
		}
		shUpd, err := sh.Step(ts, genSh.Batch(100, ts))
		if err != nil {
			t.Fatal(err)
		}
		diffUpdates(t, ts, refUpd, shUpd)
		if err := sh.CheckInfluence(); err != nil {
			t.Fatalf("cycle %d: %v", ts, err)
		}
	}
	if sh.Migrations() == 0 {
		t.Fatal("rebalancer never migrated despite a fully clumped placement")
	}
	loads := sh.ShardLoads()
	if loads[0].Queries == 16 {
		t.Fatalf("shard 0 still owns every query after rebalancing: %+v", loads)
	}
	spread := 0
	for _, l := range loads {
		if l.Queries > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("load never spread beyond one shard: %+v", loads)
	}
}

// clumpPlacement is the rebalancer's worst case: every query starts on
// shard 0.
type clumpPlacement struct{}

func (clumpPlacement) Place(core.QueryID, []ShardLoad) int { return 0 }
func (clumpPlacement) String() string                      { return "clump" }

// TestMigrateQueriesSingleDrain pins the batching contract: moving N
// queries through MigrateQueries stalls the monitor behind exactly one
// cycle-barrier drain, where N individual MigrateQuery calls pay N.
func TestMigrateQueriesSingleDrain(t *testing.T) {
	opts := core.Options{Dims: 4, Window: window.Count(200), TargetCells: 64}
	sh, err := NewWithConfig(opts, 3, Config{Placement: clumpPlacement{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	gen := stream.NewGenerator(stream.IND, 4, 21)
	if _, err := sh.Step(0, gen.Batch(100, 0)); err != nil {
		t.Fatal(err)
	}
	ids := registerMixedQueries(t, sh, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, 4, 23), 6)

	moves := []QueryMove{
		{Query: ids[0], Target: 1},
		{Query: ids[1], Target: 2},
		{Query: ids[2], Target: 1},
	}
	drainsBefore, movesBefore := sh.drains.Load(), sh.Migrations()
	if err := sh.MigrateQueries(moves); err != nil {
		t.Fatal(err)
	}
	if got := sh.drains.Load() - drainsBefore; got != 1 {
		t.Fatalf("batched 3-move pass drained %d times, want 1", got)
	}
	if got := sh.Migrations() - movesBefore; got != 3 {
		t.Fatalf("batched pass executed %d migrations, want 3", got)
	}

	// The equivalent single-query calls pay one drain each.
	drainsBefore = sh.drains.Load()
	for i, id := range ids[3:6] {
		if err := sh.MigrateQuery(id, 1+i%2); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.drains.Load() - drainsBefore; got != 3 {
		t.Fatalf("3 individual moves drained %d times, want 3", got)
	}

	// An empty batch is a no-op without a drain.
	drainsBefore = sh.drains.Load()
	if err := sh.MigrateQueries(nil); err != nil {
		t.Fatal(err)
	}
	if got := sh.drains.Load() - drainsBefore; got != 0 {
		t.Fatalf("empty batch drained %d times, want 0", got)
	}

	// A batch with an invalid target is rejected up front: no drain, no
	// partial application.
	drainsBefore, movesBefore = sh.drains.Load(), sh.Migrations()
	err = sh.MigrateQueries([]QueryMove{{Query: ids[0], Target: 0}, {Query: ids[1], Target: 99}})
	if err == nil {
		t.Fatal("out-of-range target in a batch should fail")
	}
	if d, m := sh.drains.Load()-drainsBefore, sh.Migrations()-movesBefore; d != 0 || m != 0 {
		t.Fatalf("rejected batch drained %d times and moved %d queries, want 0/0", d, m)
	}

	if err := sh.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalancePassSingleDrain asserts a multi-move rebalance pass drains
// once: the pass plans its moves from the gathered cost view and applies
// them as one batch at the barrier it already holds.
func TestRebalancePassSingleDrain(t *testing.T) {
	const shards = 4
	opts := core.Options{Dims: 4, Window: window.Count(800), TargetCells: 256}
	sh, err := NewWithConfig(opts, shards, Config{
		Placement: clumpPlacement{},
		Rebalance: RebalanceConfig{Interval: 1 << 30, Threshold: 1.05, MaxMoves: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	gen := stream.NewGenerator(stream.IND, 4, 31)
	registerMixedQueries(t, sh, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, 4, 33), 12)
	for ts := int64(0); ts < 8; ts++ {
		if _, err := sh.Step(ts, gen.Batch(200, ts)); err != nil {
			t.Fatal(err)
		}
	}

	drainsBefore, movesBefore := sh.drains.Load(), sh.Migrations()
	sh.stepMu.Lock()
	sh.rebalanceLocked()
	sh.stepMu.Unlock()
	if got := sh.Migrations() - movesBefore; got < 2 {
		t.Fatalf("clumped pass moved %d queries, want >= 2", got)
	}
	if got := sh.drains.Load() - drainsBefore; got != 1 {
		t.Fatalf("rebalance pass drained %d times, want 1", got)
	}
	if err := sh.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
}
