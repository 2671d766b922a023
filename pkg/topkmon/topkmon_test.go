package topkmon_test

import (
	"testing"

	"topkmon/pkg/topkmon"
)

func TestNewValidation(t *testing.T) {
	if _, err := topkmon.New(0, topkmon.WithCountWindow(10)); err == nil {
		t.Fatal("dims=0 should be rejected")
	}
	if _, err := topkmon.New(2); err == nil {
		t.Fatal("append-only mode without a window should be rejected")
	}
	if _, err := topkmon.New(2, topkmon.WithStreamMode(topkmon.UpdateStream)); err != nil {
		t.Fatalf("update-stream mode needs no window: %v", err)
	}
}

func TestSingleVsShardedFacade(t *testing.T) {
	build := func(shards int) *topkmon.Monitor {
		m, err := topkmon.New(3,
			topkmon.WithCountWindow(800),
			topkmon.WithShards(shards),
			topkmon.WithTargetCells(64),
		)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	single, sharded := build(1), build(4)
	defer single.Close()
	defer sharded.Close()
	if single.Shards() != 1 || sharded.Shards() != 4 {
		t.Fatalf("Shards() = %d / %d, want 1 / 4", single.Shards(), sharded.Shards())
	}

	for _, m := range []*topkmon.Monitor{single, sharded} {
		if _, err := m.RegisterTopK(topkmon.Linear(1, 2, 0.5), 5); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterThreshold(topkmon.Linear(1, 1, 1), 2.7); err != nil {
			t.Fatal(err)
		}
	}

	genA := topkmon.NewGenerator(topkmon.IND, 3, 42)
	genB := topkmon.NewGenerator(topkmon.IND, 3, 42)
	for ts := int64(0); ts < 12; ts++ {
		ua, err := single.Step(ts, genA.Batch(100, ts))
		if err != nil {
			t.Fatal(err)
		}
		ub, err := sharded.Step(ts, genB.Batch(100, ts))
		if err != nil {
			t.Fatal(err)
		}
		if len(ua) != len(ub) {
			t.Fatalf("ts=%d: %d vs %d updates", ts, len(ua), len(ub))
		}
		for i := range ua {
			if ua[i].Query != ub[i].Query || len(ua[i].Added) != len(ub[i].Added) {
				t.Fatalf("ts=%d update %d diverged", ts, i)
			}
			for j := range ua[i].Added {
				if ua[i].Added[j].T.ID != ub[i].Added[j].T.ID {
					t.Fatalf("ts=%d query %d added[%d]: p%d vs p%d", ts, ua[i].Query, j,
						ua[i].Added[j].T.ID, ub[i].Added[j].T.ID)
				}
			}
		}
	}
	if single.NumPoints() != sharded.NumPoints() {
		t.Fatalf("NumPoints %d vs %d", single.NumPoints(), sharded.NumPoints())
	}
	if single.Now() != sharded.Now() {
		t.Fatalf("Now %d vs %d", single.Now(), sharded.Now())
	}

	// Per-shard loads: one entry per shard, their query counts summing to
	// the registrations; a single engine has none.
	loads := sharded.ShardLoads()
	if len(loads) != 4 {
		t.Fatalf("ShardLoads returned %d entries, want 4", len(loads))
	}
	total := 0
	for _, l := range loads {
		total += l.Queries
	}
	if total != sharded.NumQueries() {
		t.Fatalf("loads count %d queries, want %d", total, sharded.NumQueries())
	}
	if single.ShardLoads() != nil {
		t.Fatal("single engine should report nil loads")
	}
}

// TestPartitioningFacade drives a single engine and a data-partitioned
// sharded monitor through identical streams via the public API and
// requires identical update streams and results.
func TestPartitioningFacade(t *testing.T) {
	if p, err := topkmon.ParsePartitioning("data"); err != nil || p != topkmon.PartitionData {
		t.Fatalf("ParsePartitioning(data) = %v, %v", p, err)
	}
	if _, err := topkmon.ParsePartitioning("bogus"); err == nil {
		t.Fatal("bogus partitioning should be rejected")
	}

	build := func(opts ...topkmon.Option) *topkmon.Monitor {
		base := []topkmon.Option{topkmon.WithCountWindow(600), topkmon.WithTargetCells(64)}
		m, err := topkmon.New(3, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	single := build()
	data := build(topkmon.WithShards(4), topkmon.WithPartitioning(topkmon.PartitionData))
	defer single.Close()
	defer data.Close()

	for _, m := range []*topkmon.Monitor{single, data} {
		if _, err := m.RegisterTopK(topkmon.Linear(1, 2, 0.5), 5); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterThreshold(topkmon.Linear(1, 1, 1), 2.7); err != nil {
			t.Fatal(err)
		}
	}

	genA := topkmon.NewGenerator(topkmon.IND, 3, 7)
	genB := topkmon.NewGenerator(topkmon.IND, 3, 7)
	for ts := int64(0); ts < 12; ts++ {
		ua, err := single.Step(ts, genA.Batch(100, ts))
		if err != nil {
			t.Fatal(err)
		}
		ub, err := data.Step(ts, genB.Batch(100, ts))
		if err != nil {
			t.Fatal(err)
		}
		if len(ua) != len(ub) {
			t.Fatalf("ts=%d: %d vs %d updates", ts, len(ua), len(ub))
		}
		for i := range ua {
			if ua[i].Query != ub[i].Query ||
				len(ua[i].Added) != len(ub[i].Added) ||
				len(ua[i].Removed) != len(ub[i].Removed) {
				t.Fatalf("ts=%d update %d diverged", ts, i)
			}
			for j := range ua[i].Added {
				if ua[i].Added[j].T.ID != ub[i].Added[j].T.ID {
					t.Fatalf("ts=%d query %d added[%d]: p%d vs p%d", ts, ua[i].Query, j,
						ua[i].Added[j].T.ID, ub[i].Added[j].T.ID)
				}
			}
		}
	}
	if single.NumPoints() != data.NumPoints() {
		t.Fatalf("NumPoints %d vs %d", single.NumPoints(), data.NumPoints())
	}
	// Data partitioning must not replicate the index: the sharded
	// monitor's total footprint stays comparable to the single engine's
	// (router window + per-shard grid overhead), far from ×shards.
	if sm, dm := single.MemoryBytes(), data.MemoryBytes(); dm > 3*sm {
		t.Fatalf("data-partitioned memory %d suggests index replication (single %d)", dm, sm)
	}
}

func TestTickStampsAndAdvances(t *testing.T) {
	m, err := topkmon.New(2, topkmon.WithCountWindow(100), topkmon.WithTargetCells(16))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RegisterTopK(topkmon.Linear(1, 1), 3); err != nil {
		t.Fatal(err)
	}
	mk := func(n int) []*topkmon.Tuple {
		out := make([]*topkmon.Tuple, n)
		for i := range out {
			out[i] = &topkmon.Tuple{ID: uint64(len(out)*int(m.Now()+1) + i), Vec: topkmon.Vector{0.5, 0.5}}
		}
		return out
	}
	batch := mk(5)
	if _, err := m.Tick(batch); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 0 {
		t.Fatalf("first tick should run at ts 0, got %d", m.Now())
	}
	for i, tp := range batch {
		if tp.TS != 0 {
			t.Fatalf("tuple %d not stamped with tick timestamp: %d", i, tp.TS)
		}
		if i > 0 && batch[i].Seq <= batch[i-1].Seq {
			t.Fatalf("sequence numbers not increasing: %d then %d", batch[i-1].Seq, batch[i].Seq)
		}
	}
	if _, err := m.Tick(mk(5)); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 1 {
		t.Fatalf("logical clock should advance to 1, got %d", m.Now())
	}
}

func TestWithClock(t *testing.T) {
	var fake int64 = 100
	m, err := topkmon.New(2,
		topkmon.WithTimeWindow(10),
		topkmon.WithTargetCells(16),
		topkmon.WithClock(topkmon.ClockFunc(func() int64 { return fake })),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Tick([]*topkmon.Tuple{{ID: 1, Vec: topkmon.Vector{0.1, 0.9}}}); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 100 {
		t.Fatalf("Now = %d, want the injected clock's 100", m.Now())
	}
	fake = 105
	if _, err := m.Tick([]*topkmon.Tuple{{ID: 2, Vec: topkmon.Vector{0.9, 0.1}}}); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 105 {
		t.Fatalf("Now = %d, want 105", m.Now())
	}
}

func TestWithPolicyDefault(t *testing.T) {
	m, err := topkmon.New(2,
		topkmon.WithCountWindow(50),
		topkmon.WithTargetCells(16),
		topkmon.WithPolicy(topkmon.TMA),
		topkmon.WithStreamMode(topkmon.UpdateStream),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// SMA is rejected in update-stream mode, so RegisterTopK succeeding
	// proves the TMA default was applied.
	if _, err := m.RegisterTopK(topkmon.Linear(1, 1), 3); err != nil {
		t.Fatalf("RegisterTopK under WithPolicy(TMA): %v", err)
	}
	if _, err := m.Register(topkmon.QuerySpec{F: topkmon.Linear(1, 1), K: 3, Policy: topkmon.SMA}); err == nil {
		t.Fatal("explicit SMA spec should still be rejected in update-stream mode")
	}
}

func TestUpdateStreamFacade(t *testing.T) {
	m, err := topkmon.New(2,
		topkmon.WithStreamMode(topkmon.UpdateStream),
		topkmon.WithShards(2),
		topkmon.WithTargetCells(16),
		topkmon.WithPolicy(topkmon.TMA),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	q, err := m.RegisterTopK(topkmon.Linear(1, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	arr := []*topkmon.Tuple{
		{ID: 1, Vec: topkmon.Vector{0.9, 0.5}},
		{ID: 2, Vec: topkmon.Vector{0.8, 0.5}},
		{ID: 3, Vec: topkmon.Vector{0.7, 0.5}},
	}
	if _, err := m.TickUpdate(arr, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TickUpdate(nil, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Result(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].T.ID != 2 || res[1].T.ID != 3 {
		t.Fatalf("unexpected result after deletion: %v", res)
	}
}

// TestPipelinedFacade drives the public pipelined surface end to end:
// Ingest without waiting, ordered delivery on Updates, Flush as the
// barrier, Result reflecting every ingested batch, and Close closing the
// channel. The synchronous monitor on the same stream is the oracle.
func TestPipelinedFacade(t *testing.T) {
	build := func(opts ...topkmon.Option) *topkmon.Monitor {
		m, err := topkmon.New(2, append([]topkmon.Option{
			topkmon.WithCountWindow(500),
			topkmon.WithShards(3),
			topkmon.WithTargetCells(16),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sync := build()
	defer sync.Close()
	piped := build(topkmon.WithPipeline(2))
	if !piped.Pipelined() {
		t.Fatal("WithPipeline monitor must report Pipelined")
	}
	if sync.Pipelined() {
		t.Fatal("synchronous monitor must not report Pipelined")
	}
	if err := sync.Ingest(0, nil); err == nil {
		t.Fatal("Ingest on a synchronous monitor must fail")
	}
	if err := sync.Flush(); err == nil {
		t.Fatal("Flush on a synchronous monitor must fail")
	}
	if sync.Updates() != nil {
		t.Fatal("Updates on a synchronous monitor must be nil")
	}

	var delivered [][]topkmon.Update
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for batch := range piped.Updates() {
			delivered = append(delivered, batch)
		}
	}()

	for _, m := range []*topkmon.Monitor{sync, piped} {
		if _, err := m.RegisterTopK(topkmon.Linear(1, 2), 4); err != nil {
			t.Fatal(err)
		}
	}
	genSync := topkmon.NewGenerator(topkmon.IND, 2, 77)
	genPiped := topkmon.NewGenerator(topkmon.IND, 2, 77)
	var want [][]topkmon.Update
	for ts := int64(1); ts <= 30; ts++ {
		upd, err := sync.Step(ts, genSync.Batch(40, ts))
		if err != nil {
			t.Fatal(err)
		}
		if len(upd) > 0 {
			want = append(want, upd)
		}
		if err := piped.Ingest(ts, genPiped.Batch(40, ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := piped.Flush(); err != nil {
		t.Fatal(err)
	}
	refRes, err := sync.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := piped.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes) != len(gotRes) {
		t.Fatalf("result sizes diverge: %d vs %d", len(refRes), len(gotRes))
	}
	for i := range refRes {
		if refRes[i].T.ID != gotRes[i].T.ID || refRes[i].Score != gotRes[i].Score {
			t.Fatalf("result %d diverged: %v vs %v", i, refRes[i], gotRes[i])
		}
	}
	if err := piped.Close(); err != nil {
		t.Fatal(err)
	}
	<-consumerDone
	if len(delivered) != len(want) {
		t.Fatalf("delivered %d update batches, sync emitted %d", len(delivered), len(want))
	}
	for i := range want {
		if len(delivered[i]) != len(want[i]) {
			t.Fatalf("batch %d: %d updates vs %d", i, len(delivered[i]), len(want[i]))
		}
		for j := range want[i] {
			w, g := want[i][j], delivered[i][j]
			if w.Query != g.Query || len(w.Added) != len(g.Added) || len(w.Removed) != len(g.Removed) {
				t.Fatalf("batch %d update %d diverged: %+v vs %+v", i, j, w, g)
			}
		}
	}
}

// TestQueueHighWaterFacade: a pipelined monitor reports its queue
// high-water mark in Stats, bounded by the fixed WithPipeline depth.
func TestQueueHighWaterFacade(t *testing.T) {
	mon, err := topkmon.New(2, topkmon.WithCountWindow(300), topkmon.WithPipeline(2))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range mon.Updates() {
		}
	}()
	if _, err := mon.RegisterTopK(topkmon.Linear(1, 1), 5); err != nil {
		t.Fatal(err)
	}
	gen := topkmon.NewGenerator(topkmon.IND, 2, 9)
	for ts := int64(0); ts < 30; ts++ {
		if err := mon.Ingest(ts, gen.Batch(200, ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := mon.Stats(); s.QueueHighWater < 1 || s.QueueHighWater > 2 {
		t.Fatalf("QueueHighWater = %d, want in [1, 2]", s.QueueHighWater)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
}
