package topkmon

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/recovery"
	"topkmon/internal/shard"
	"topkmon/internal/window"
)

// fill runs n ticks of b generated tuples each through the monitor.
func fill(t *testing.T, m *Monitor, gen *Generator, n, b int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Tick(gen.Batch(b, 0)); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
}

// sameResults asserts two monitors agree on a query's result.
func sameResults(t *testing.T, a, b *Monitor, id QueryID) {
	t.Helper()
	ra, err := a.Result(id)
	if err != nil {
		t.Fatalf("result a: %v", err)
	}
	rb, err := b.Result(id)
	if err != nil {
		t.Fatalf("result b: %v", err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("result lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].T.ID != rb[i].T.ID || ra[i].Score != rb[i].Score {
			t.Fatalf("result[%d] differs: %v vs %v", i, ra[i], rb[i])
		}
	}
}

// TestFacadeCheckpointRestore drives a checkpointed facade monitor, kills
// and restores it twice (once mid-cadence so WAL replay runs, once after
// Close so the final checkpoint alone carries the state), and checks the
// restored monitor resumes ticking with identical results to an
// uninterrupted twin fed the same stream.
func TestFacadeCheckpointRestore(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"engine", nil},
		{"data-sharded", []Option{WithShards(3)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			base := []Option{WithCountWindow(200), WithTargetCells(64)}
			mon, err := New(2, append(append([]Option{}, base...),
				append(mode.opts, WithCheckpoint(dir, 4))...)...)
			if err != nil {
				t.Fatal(err)
			}
			if !mon.Checkpointed() {
				t.Fatal("monitor not checkpointed")
			}
			twin, err := New(2, append(append([]Option{}, base...), mode.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()

			// Identical generators feed both monitors the same tuples.
			gen, tgen := NewGenerator(IND, 2, 11), NewGenerator(IND, 2, 11)
			id, err := mon.RegisterTopK(Linear(1, 2), 5)
			if err != nil {
				t.Fatal(err)
			}
			tid, err := twin.RegisterTopK(Linear(1, 2), 5)
			if err != nil {
				t.Fatal(err)
			}
			if id != tid {
				t.Fatalf("query ids diverged before crash: %d vs %d", id, tid)
			}

			// 6 cycles with cadence 4: the crash leaves 2 cycles in the WAL.
			fill(t, mon, gen, 6, 25)
			fill(t, twin, tgen, 6, 25)
			if err := mon.abandon(); err != nil {
				t.Fatal(err)
			}

			mon, err = Restore(dir)
			if err != nil {
				t.Fatalf("restore after crash: %v", err)
			}
			if got := mon.Shards(); got != twin.Shards() {
				t.Fatalf("restored shards = %d, want %d", got, twin.Shards())
			}
			sameResults(t, mon, twin, id)

			// The restored monitor keeps producing the twin's results.
			fill(t, mon, gen, 5, 25)
			fill(t, twin, tgen, 5, 25)
			sameResults(t, mon, twin, id)
			id2, err := mon.RegisterTopK(Linear(2, 1), 3)
			if err != nil {
				t.Fatal(err)
			}
			tid2, err := twin.RegisterTopK(Linear(2, 1), 3)
			if err != nil {
				t.Fatal(err)
			}
			if id2 != tid2 {
				t.Fatalf("post-restore query ids diverged: %d vs %d", id2, tid2)
			}
			fill(t, mon, gen, 3, 25)
			fill(t, twin, tgen, 3, 25)
			sameResults(t, mon, twin, id2)

			// Orderly shutdown, then restore from the final checkpoint.
			if err := mon.Close(); err != nil {
				t.Fatal(err)
			}
			mon, err = Restore(dir)
			if err != nil {
				t.Fatalf("restore after close: %v", err)
			}
			sameResults(t, mon, twin, id)
			sameResults(t, mon, twin, id2)
			if err := mon.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreLegacyQueueKeys: a lineage whose facade state was written
// while the pipeline queue could grow and drop its oldest batch
// (testdata/legacy_aux.json, byte for byte what such a monitor wrote)
// restores into a pipelined monitor at the recorded fixed depth, and
// ingestion through it loses nothing.
func TestRestoreLegacyQueueKeys(t *testing.T) {
	aux, err := os.ReadFile(filepath.Join("testdata", "legacy_aux.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	eng, err := core.NewEngine(core.Options{Dims: 2, Window: window.Count(200), TargetCells: 64})
	if err != nil {
		t.Fatal(err)
	}
	g, err := recovery.NewGuard(eng, dir, recovery.GuardOptions{Aux: func() []byte { return aux }})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	mon, err := Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !mon.Pipelined() {
		t.Fatal("restored monitor is not pipelined")
	}
	if d := mon.pipe.Depth(); d != 2 {
		t.Fatalf("restored queue depth %d, want 2", d)
	}
	drainUpdates(mon)
	gen := NewGenerator(IND, 2, 5)
	for ts := int64(1); ts <= 15; ts++ {
		if err := mon.Ingest(ts, gen.Batch(10, ts)); err != nil {
			t.Fatalf("ingest %d: %v", ts, err)
		}
	}
	if err := mon.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := mon.NumPoints(); n != 150 {
		t.Fatalf("NumPoints = %d, want all 150 ingested tuples", n)
	}
	if s := mon.Stats(); s.DroppedBatches != 0 || s.QueueHighWater > 2 {
		t.Fatalf("dropped %d batches, high water %d: want 0 and at most the depth 2", s.DroppedBatches, s.QueueHighWater)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewWritesFullAux pins the facade state New records in the manifest
// when every structural option is set: testdata/aux_full.json holds the
// exact bytes, so a lineage written by any build restores in any other.
func TestNewWritesFullAux(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "aux_full.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	mon, err := New(2, WithCountWindow(100), WithShards(2), WithPipeline(3),
		WithAdmission(AdmissionConfig{Seed: 7, MemLimit: 1 << 20}), WithCheckpoint(dir, 5), WithCheckpointSync(), WithPolicy(TMA))
	if err != nil {
		t.Fatal(err)
	}
	drainUpdates(mon)
	got, err := recovery.ReadAux(dir)
	if cerr := mon.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("aux blob changed:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreLegacyAdmissionKeys: a lineage whose facade state spells out
// every governor tunable (testdata/legacy_admission_aux.json, byte for
// byte what a two-shard pipelined monitor with WithAdmission(Seed 7,
// MemLimit 1 MiB) wrote while those tunables were settable) restores into
// the same stack: two shards, the depth-3 pipeline, and a governor that
// still enforces the recorded memory limit. Decoding ignores the keys of
// the fixed tunables.
func TestRestoreLegacyAdmissionKeys(t *testing.T) {
	aux, err := os.ReadFile(filepath.Join("testdata", "legacy_admission_aux.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	inner, err := shard.NewData(core.Options{Dims: 2, Window: window.Count(100)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := recovery.NewGuard(inner, dir, recovery.GuardOptions{Every: 5, Aux: func() []byte { return aux }})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	mon, err := Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	drainUpdates(mon)
	if mon.Shards() != 2 || !mon.Pipelined() || mon.pipe.Depth() != 3 {
		t.Fatalf("restored shards %d, pipelined %v: want 2 shards behind a depth-3 pipeline", mon.Shards(), mon.Pipelined())
	}
	if !mon.AdmissionControlled() {
		t.Fatal("restored monitor lost its admission governor")
	}
	gen := NewGenerator(IND, 2, 5)
	for ts := int64(1); ts <= 5; ts++ {
		if err := mon.Ingest(ts, gen.Batch(10, ts)); err != nil {
			t.Fatalf("ingest %d: %v", ts, err)
		}
	}
	if err := mon.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := mon.NumPoints(); n != 50 {
		t.Fatalf("NumPoints = %d, want all 50 ingested tuples", n)
	}
	mon.st.Gov.ObserveMemory(1<<20, 0)
	if got := mon.AdmissionState(); got != AdmissionCritical {
		t.Fatalf("AdmissionState() at the recorded 1 MiB limit = %v, want critical", got)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsStructuralOptions: the checkpoint records the
// monitor's structure, so Restore refuses an option that would change it,
// naming the setting, and still accepts runtime options such as WithClock.
func TestRestoreRejectsStructuralOptions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	mon, err := New(2, WithCountWindow(50), WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opt   Option
		field string
	}{
		{WithShards(2), "Shards"},
		{WithPipeline(2), "PipeDepth"},
		{WithAdmission(AdmissionConfig{}), "Admission"},
		{WithCheckpoint(dir, 3), "Dir"},
		{WithCheckpointSync(), "Sync"},
		{WithCountWindow(10), "Engine.Window"},
		{WithPolicy(TMA), "Policy"},
	} {
		r, err := Restore(dir, c.opt)
		if err == nil {
			r.Close()
			t.Errorf("Restore accepted an option setting %s", c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("Restore error %q does not name %s", err, c.field)
		}
	}
	r, err := Restore(dir, WithClock(ClockFunc(func() int64 { return 7 })))
	if err != nil {
		t.Fatalf("Restore with WithClock: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// sameUpdates asserts two cycles reported the same result deltas.
func sameUpdates(t *testing.T, ts int64, a, b []Update) {
	t.Helper()
	render := func(us []Update) string {
		var sb strings.Builder
		for _, u := range us {
			fmt.Fprintf(&sb, "q%d", u.Query)
			for _, e := range u.Added {
				fmt.Fprintf(&sb, " +p%d=%g", e.T.ID, e.Score)
			}
			for _, e := range u.Removed {
				fmt.Fprintf(&sb, " -p%d=%g", e.T.ID, e.Score)
			}
			sb.WriteByte(';')
		}
		return sb.String()
	}
	if ra, rb := render(a), render(b); ra != rb {
		t.Fatalf("cycle %d: updates diverged\n%s\n%s", ts, ra, rb)
	}
}

// TestRestoreLegacyRebalanceKeys: a lineage whose facade state names a
// placement policy and a rebalancer (testdata/legacy_rebalance_aux.json,
// byte for byte what a three-shard monitor with least-loaded placement,
// rebalancing every 2 cycles at threshold 1.05 and a checkpoint every 4
// cycles wrote) restores into a three-shard monitor whose every update and
// result matches an uninterrupted twin's, and whose shards hold the
// twin's query counts.
func TestRestoreLegacyRebalanceKeys(t *testing.T) {
	aux, err := os.ReadFile(filepath.Join("testdata", "legacy_rebalance_aux.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	inner, err := shard.NewData(core.Options{Dims: 2, Window: window.Count(200), TargetCells: 64}, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := recovery.NewGuard(inner, dir, recovery.GuardOptions{Every: 4, Aux: func() []byte { return aux }})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(2, WithCountWindow(200), WithTargetCells(64), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	gen, tgen := NewGenerator(IND, 2, 11), NewGenerator(IND, 2, 11)
	var specs []QuerySpec
	for i := 0; i < 8; i++ {
		specs = append(specs, QuerySpec{F: Linear(1, float64(i+1)), K: 2 + i%4, Policy: SMA})
	}
	var ids []QueryID
	register := func(a, b interface {
		Register(QuerySpec) (QueryID, error)
	}, spec QuerySpec) {
		t.Helper()
		ia, err := a.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := b.Register(spec)
		if err != nil || ia != ib {
			t.Fatalf("register: ids %d vs %d (%v)", ia, ib, err)
		}
		ids = append(ids, ia)
	}
	step := func(a, b interface {
		Step(int64, []*Tuple) ([]Update, error)
	}, ts int64) {
		t.Helper()
		ua, err := a.Step(ts, gen.Batch(25, ts))
		if err != nil {
			t.Fatal(err)
		}
		ub, err := b.Step(ts, tgen.Batch(25, ts))
		if err != nil {
			t.Fatal(err)
		}
		sameUpdates(t, ts, ua, ub)
	}

	for _, spec := range specs[:3] {
		register(g, twin, spec)
	}
	// 6 cycles with cadence 4: the crash leaves 2 cycles in the WAL.
	for ts := int64(0); ts < 6; ts++ {
		step(g, twin, ts)
	}
	if err := g.Abandon(); err != nil {
		t.Fatal(err)
	}

	mon, err := Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer mon.Close()
	if mon.Shards() != 3 {
		t.Fatalf("restored shards = %d, want 3", mon.Shards())
	}
	for _, spec := range specs[3:] {
		register(mon, twin, spec)
	}
	for ts := int64(6); ts < 16; ts++ {
		step(mon, twin, ts)
	}
	got, want := mon.ShardLoads(), twin.ShardLoads()
	for i := range want {
		if got[i].Queries != want[i].Queries {
			t.Fatalf("shard %d holds %d queries, the twin's holds %d", i, got[i].Queries, want[i].Queries)
		}
	}
	for _, id := range ids {
		sameResults(t, mon, twin, id)
	}
}

// TestRestoreQueryShardedLineage: testdata/query-sharded-lineage is the
// directory a WithShards(3) monitor wrote while query-partitioned shards
// were the default layout (count window 200, 64 cells, three top-k
// queries, six ticks of 25 tuples, checkpoint every 4 cycles, then Close).
// That layout is retired, so Restore refuses the lineage as ErrVersion and
// says which layout it holds.
func TestRestoreQueryShardedLineage(t *testing.T) {
	src := filepath.Join("testdata", "query-sharded-lineage")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mon, err := Restore(dir)
	if err == nil {
		mon.Close()
		t.Fatal("a query-partitioned lineage restored")
	}
	if !errors.Is(err, recovery.ErrVersion) || !strings.Contains(err.Error(), "query-partitioned") {
		t.Fatalf("got %v, want ErrVersion naming the query-partitioned layout", err)
	}
}

// TestRestoreErrorsFacade checks the re-exported sentinel classification.
func TestRestoreErrorsFacade(t *testing.T) {
	if _, err := Restore(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

// TestClosedErrorsFacade checks that operations after Close report the
// re-exported typed sentinels through errors.Is, for both the pipelined
// and the sharded shutdown path.
func TestClosedErrorsFacade(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		mon, err := New(2, WithCountWindow(100), WithPipeline(4))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range mon.Updates() {
			}
		}()
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mon.Ingest(1, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Ingest after close: got %v, want ErrClosed", err)
		}
		if err := mon.Flush(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Flush after close: got %v, want ErrClosed", err)
		}
		if _, err := mon.RegisterTopK(Linear(1, 1), 3); !errors.Is(err, ErrClosed) {
			t.Fatalf("Register after close: got %v, want ErrClosed", err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		mon, err := New(2, WithCountWindow(100), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.Tick(nil); !errors.Is(err, ErrStopped) {
			t.Fatalf("Tick after close: got %v, want ErrStopped", err)
		}
		if _, err := mon.RegisterTopK(Linear(1, 1), 3); !errors.Is(err, ErrStopped) {
			t.Fatalf("Register after close: got %v, want ErrStopped", err)
		}
	})
}
