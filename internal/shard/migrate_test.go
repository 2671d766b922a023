package shard

import (
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// TestMigrationPreservesBehavior drives a single engine and a sharded
// monitor through the same stream while every cycle boundary moves every
// query onto another shard. Two sharded monitors are fed the identical
// tuples; at each boundary the queries leave the active one through
// ExportQuery/Unregister and enter the idle twin through ImportQueryAt on a
// different shard than they left, the routing table following through
// RestoreRouting — the primitives a checkpoint restore uses, including for
// routes off the hash placement. Then the twins swap roles. Updates and
// results must stay identical to the never-moving reference.
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
	active, err := New(opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { active.Close() }()
	idle, err := New(opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { idle.Close() }()

	// step feeds one batch to all three monitors; both twins receive the
	// same tuple pointers, which snapshots require of importer and exporter.
	genRef := stream.NewGenerator(stream.IND, dims, 11)
	genSh := stream.NewGenerator(stream.IND, dims, 11)
	step := func(ts int64, n int) (refUpd, shUpd []core.Update) {
		t.Helper()
		refUpd, err := ref.Step(ts, genRef.Batch(n, ts))
		if err != nil {
			t.Fatal(err)
		}
		batch := genSh.Batch(n, ts)
		shUpd, err = active.Step(ts, batch)
		if err != nil {
			t.Fatal(err)
		}
		idleUpd, err := idle.Step(ts, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(idleUpd) != 0 {
			t.Fatalf("cycle %d: the query-less twin emitted %d updates", ts, len(idleUpd))
		}
		return refUpd, shUpd
	}
	step(0, 1000)
	refIDs := registerMixedQueries(t, ref, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, dims, 7), 12)
	shIDs := registerMixedQueries(t, active, core.AppendOnly, stream.NewQueryGenerator(stream.FuncLinear, dims, 7), 12)

	offHash := false
	for ts := int64(1); ts <= cycles; ts++ {
		refUpd, shUpd := step(ts, rate)
		diffUpdates(t, ts, refUpd, shUpd)

		// Export every query from its current shard, then drop it there.
		next, routes := active.ExportRouting()
		snaps := make(map[core.QueryID]core.QuerySnapshot, len(routes))
		err := active.Barrier(func(i int, eng *core.Engine) error {
			for _, r := range routes {
				if r.Shard != i {
					continue
				}
				snap, err := eng.ExportQuery(r.Local)
				if err != nil {
					return err
				}
				snaps[r.Global] = snap
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cycle %d export: %v", ts, err)
		}
		for _, r := range routes {
			if err := active.Unregister(r.Global); err != nil {
				t.Fatalf("cycle %d unregister q%d: %v", ts, r.Global, err)
			}
		}
		if n := active.NumQueries(); n != 0 {
			t.Fatalf("cycle %d: %d queries left behind after the move", ts, n)
		}

		// Import each on the twin, on a shard other than the one it left.
		// Global ids are unique, so they double as collision-free local ids.
		moved := make([]QueryRoute, len(routes))
		for i, r := range routes {
			moved[i] = QueryRoute{Global: r.Global, Shard: (r.Shard + 1 + int(ts)%(shards-1)) % shards, Local: r.Global}
			offHash = offHash || moved[i].Shard != shardOf(r.Global, shards)
		}
		err = idle.Barrier(func(i int, eng *core.Engine) error {
			for _, r := range moved {
				if r.Shard != i {
					continue
				}
				if err := eng.ImportQueryAt(snaps[r.Global], r.Local); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cycle %d import: %v", ts, err)
		}
		if err := idle.RestoreRouting(next, moved); err != nil {
			t.Fatalf("cycle %d routing: %v", ts, err)
		}
		active, idle = idle, active
		if err := active.CheckInfluence(); err != nil {
			t.Fatalf("cycle %d after migration: %v", ts, err)
		}
	}
	if !offHash {
		t.Fatal("no query was ever moved off its hash placement")
	}

	for i, id := range refIDs {
		a, err := ref.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := active.Result(shIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(keysOf(a), keysOf(b)) {
			t.Fatalf("final result of q%d diverged", id)
		}
	}
	// The routing table and per-shard engines must agree on query counts.
	total := 0
	for _, l := range active.ShardLoads() {
		total += l.Queries
	}
	if total != active.NumQueries() || total != len(shIDs) {
		t.Fatalf("shard loads count %d queries, monitor reports %d, registered %d", total, active.NumQueries(), len(shIDs))
	}
}
