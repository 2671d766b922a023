package recovery

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// driver drives a guarded monitor and an unguarded reference engine
// through identical streams (separate generators, same seed, so tuple
// instances are never shared) and compares everything observable.
type driver struct {
	t    *testing.T
	opts core.Options
	gen  *stream.Generator // guarded stream
	ref  *stream.Generator // reference stream
	eng  *core.Engine      // reference engine
	mon  core.StreamMonitor
	now  int64
	seq  uint64
	ids  []core.QueryID
	live []uint64 // live tuple ids (UpdateStream deletions)
}

func newDriver(t *testing.T, opts core.Options, mon core.StreamMonitor) *driver {
	t.Helper()
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	return &driver{
		t:    t,
		opts: opts,
		gen:  stream.NewGenerator(stream.IND, opts.Dims, 7),
		ref:  stream.NewGenerator(stream.IND, opts.Dims, 7),
		eng:  eng,
		mon:  mon,
	}
}

func (d *driver) batchPair(n int) ([]*stream.Tuple, []*stream.Tuple) {
	d.now++
	a := d.gen.Batch(n, d.now)
	b := d.ref.Batch(n, d.now)
	for i := range a {
		d.seq++
		a[i].Seq, b[i].Seq = d.seq, d.seq
		b[i].ID = a[i].ID
		d.live = append(d.live, a[i].ID)
	}
	return a, b
}

// cycle runs one identical cycle on both monitors and asserts matching
// updates. del deletes that many random-ish live tuples (UpdateStream).
func (d *driver) cycle(n, del int) {
	d.t.Helper()
	a, b := d.batchPair(n)
	var deletions []uint64
	for i := 0; i < del && len(d.live) > 0; i++ {
		j := int(d.seq+uint64(i)) % len(d.live)
		deletions = append(deletions, d.live[j])
		d.live = append(d.live[:j], d.live[j+1:]...)
	}
	var got, want []core.Update
	var gerr, werr error
	if d.opts.Mode == core.UpdateStream {
		got, gerr = d.mon.StepUpdate(d.now, a, deletions)
		want, werr = d.eng.StepUpdate(d.now, b, deletions)
	} else {
		got, gerr = d.mon.Step(d.now, a)
		want, werr = d.eng.Step(d.now, b)
	}
	if gerr != nil || werr != nil {
		d.t.Fatalf("cycle at ts=%d: guarded err %v, reference err %v", d.now, gerr, werr)
	}
	if rg, rw := renderUpdates(got), renderUpdates(want); rg != rw {
		d.t.Fatalf("cycle at ts=%d diverged:\n  guarded:   %s\n  reference: %s", d.now, rg, rw)
	}
}

func (d *driver) register(spec core.QuerySpec) {
	d.t.Helper()
	got, gerr := d.mon.Register(spec)
	want, werr := d.eng.Register(spec)
	if gerr != nil || werr != nil {
		d.t.Fatalf("register: guarded err %v, reference err %v", gerr, werr)
	}
	if got != want {
		d.t.Fatalf("register: guarded id %d, reference id %d", got, want)
	}
	d.ids = append(d.ids, got)
}

func (d *driver) unregister(id core.QueryID) {
	d.t.Helper()
	if err := d.mon.Unregister(id); err != nil {
		d.t.Fatalf("guarded unregister q%d: %v", id, err)
	}
	if err := d.eng.Unregister(id); err != nil {
		d.t.Fatalf("reference unregister q%d: %v", id, err)
	}
	for i, q := range d.ids {
		if q == id {
			d.ids = append(d.ids[:i], d.ids[i+1:]...)
			break
		}
	}
}

// checkState compares every live query's result plus the monitor-level
// counters between the guarded monitor and the reference.
func (d *driver) checkState() {
	d.t.Helper()
	for _, id := range d.ids {
		got, gerr := d.mon.Result(id)
		want, werr := d.eng.Result(id)
		if gerr != nil || werr != nil {
			d.t.Fatalf("result q%d: guarded err %v, reference err %v", id, gerr, werr)
		}
		if rg, rw := renderEntries(got), renderEntries(want); rg != rw {
			d.t.Fatalf("result q%d diverged:\n  guarded:   %s\n  reference: %s", id, rg, rw)
		}
	}
	if g, w := d.mon.NumPoints(), d.eng.NumPoints(); g != w {
		d.t.Fatalf("NumPoints: guarded %d, reference %d", g, w)
	}
	if g, w := d.mon.NumQueries(), d.eng.NumQueries(); g != w {
		d.t.Fatalf("NumQueries: guarded %d, reference %d", g, w)
	}
	if g, w := d.mon.Now(), d.eng.Now(); g != w {
		d.t.Fatalf("Now: guarded %d, reference %d", g, w)
	}
}

func renderEntries(entries []core.Entry) string {
	out := ""
	for _, en := range entries {
		out += string(rune(' '))
		out += en.T.String()
	}
	return out
}

func renderUpdates(updates []core.Update) string {
	out := ""
	for _, u := range updates {
		out += "|q" + itoa(int(u.Query)) + "+" + renderEntries(u.Added) + "-" + renderEntries(u.Removed)
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// roundTripConfigs is the checkpoint/restore matrix: every maintenance
// policy and query kind crossed with both window kinds and the
// explicit-deletion model.
func roundTripConfigs() map[string]core.Options {
	return map[string]core.Options{
		"count-window": {Dims: 2, Window: window.Count(120), TargetCells: 64},
		"time-window":  {Dims: 3, Window: window.Time(4), TargetCells: 64},
		"update-stream": {
			Dims: 2, Mode: core.UpdateStream, TargetCells: 64,
		},
	}
}

func specsFor(opts core.Options) []core.QuerySpec {
	lo := make(geom.Vector, opts.Dims)
	hi := make(geom.Vector, opts.Dims)
	w := make([]float64, opts.Dims)
	for i := 0; i < opts.Dims; i++ {
		lo[i], hi[i] = 0.2, 0.8
		w[i] = 1 + float64(i)
	}
	rect, err := geom.NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	thr := 0.9 * float64(opts.Dims)
	specs := []core.QuerySpec{
		{F: geom.NewLinear(w...), K: 4, Policy: core.TMA},
		{F: geom.NewProduct(make([]float64, opts.Dims)...), K: 3, Policy: core.TMA, Constraint: &rect},
		{F: geom.NewQuadratic(w...), Threshold: &thr},
	}
	if opts.Mode != core.UpdateStream {
		specs = append(specs,
			core.QuerySpec{F: geom.NewLinear(w...), K: 5, Policy: core.SMA},
			core.QuerySpec{F: geom.NewLinear(w...), K: 2, Policy: core.SMA, Constraint: &rect},
		)
	}
	return specs
}

// TestCrashRestoreRoundTrip kills a guarded monitor mid-lineage (between
// checkpoints, so the WAL suffix matters) and asserts the restored
// monitor is indistinguishable from a reference engine that never
// crashed: same results, same counters, same update stream afterwards —
// including queries registered after the restore.
func TestCrashRestoreRoundTrip(t *testing.T) {
	for name, opts := range roundTripConfigs() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := core.NewEngine(opts)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			g, err := NewGuard(eng, dir, GuardOptions{Every: 4})
			if err != nil {
				t.Fatalf("NewGuard: %v", err)
			}
			d := newDriver(t, opts, g)
			specs := specsFor(opts)
			d.cycle(40, 0) // prefill before any query exists
			for _, spec := range specs[:2] {
				d.register(spec)
			}
			for i := 0; i < 6; i++ {
				d.cycle(25, 5)
			}
			// Post-checkpoint churn that only the WAL knows about.
			for _, spec := range specs[2:] {
				d.register(spec)
			}
			d.unregister(d.ids[0])
			d.cycle(25, 5)
			d.checkState()

			if err := g.Abandon(); err != nil {
				t.Fatalf("abandon: %v", err)
			}
			restored, aux, err := Restore(dir, RestoreOptions{Every: 4})
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if aux != nil {
				t.Fatalf("unexpected aux bytes: %q", aux)
			}
			d.mon = restored
			d.checkState()
			d.register(specs[0]) // id continuity across the crash
			for i := 0; i < 5; i++ {
				d.cycle(25, 5)
			}
			d.checkState()
			if err := restored.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// A final checkpoint was written at Close: restoring again with
			// no WAL suffix must agree too.
			again, _, err := Restore(dir, RestoreOptions{})
			if err != nil {
				t.Fatalf("second restore: %v", err)
			}
			d.mon = again
			d.checkState()
			again.Close()
		})
	}
}

// TestMixedKindsCheckpointRoundTrip checkpoints an engine holding both
// query kinds — top-k queries on the influence lists, a threshold query in
// the query index — and restores it: the threshold snapshot carries no
// influence cells (its placement is implied by the threshold; exporting
// them cost a pass over every grid cell per subscription), the top-k
// snapshots carry theirs, the restored engine has every query back in its
// own structure, and the transcript continues byte-identical to a
// reference that never stopped.
func TestMixedKindsCheckpointRoundTrip(t *testing.T) {
	for name, opts := range roundTripConfigs() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := core.NewEngine(opts)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			g, err := NewGuard(eng, dir, GuardOptions{})
			if err != nil {
				t.Fatalf("NewGuard: %v", err)
			}
			d := newDriver(t, opts, g)
			d.cycle(60, 0)
			specs := specsFor(opts)
			for _, spec := range specs {
				d.register(spec)
			}
			for i := 0; i < 4; i++ {
				d.cycle(25, 5)
			}
			if err := g.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			_, states, err := readCheckpoint(dir)
			if err != nil {
				t.Fatalf("readCheckpoint: %v", err)
			}
			if len(states) != 1 || len(states[0].snaps) != len(specs) {
				t.Fatalf("checkpoint holds %d engine states, want 1 with %d queries", len(states), len(specs))
			}
			for i, snap := range states[0].snaps {
				switch cells := len(snap.InfluenceCells); {
				case snap.Spec.Threshold != nil && (cells != 0 || len(snap.LastReported) != 0):
					t.Fatalf("threshold q%d checkpointed %d influence cells and %d reported entries, want none",
						states[0].ids[i], cells, len(snap.LastReported))
				case snap.Spec.Threshold == nil && cells == 0:
					t.Fatalf("top-k q%d checkpointed no influence cells", states[0].ids[i])
				}
			}
			// A WAL suffix past the checkpoint, then the crash.
			d.cycle(25, 5)
			if err := g.Abandon(); err != nil {
				t.Fatalf("abandon: %v", err)
			}

			restored, _, err := Restore(dir, RestoreOptions{})
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			defer restored.Close()
			if err := restored.CheckInfluence(); err != nil {
				t.Fatalf("restored engine: %v", err)
			}
			d.mon = restored
			d.checkState()
			for i := 0; i < 6; i++ {
				d.cycle(25, 5)
				if err := restored.CheckInfluence(); err != nil {
					t.Fatalf("cycle %d after restore: %v", i, err)
				}
			}
			d.checkState()
		})
	}
}

// TestThresholdSnapshotOlderFormatImports: checkpoints written before
// threshold queries stopped holding a result carry the result set in a
// retired slot and again as the reporting baseline. Such a snapshot still
// decodes and imports, the lists ignored: the imported query reports the
// same result and the same updates as the one that never moved.
func TestThresholdSnapshotOlderFormatImports(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(120), TargetCells: 64}
	src, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewGenerator(stream.IND, 2, 9)
	step := func(ts int64) [2][]core.Update {
		t.Helper()
		batch := gen.Batch(30, ts)
		var out [2][]core.Update
		for i, e := range []*core.Engine{src, dst} {
			if out[i], err = e.Step(ts, batch); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	thr := 1.2
	id, err := src.Register(core.QuerySpec{F: geom.NewLinear(1, 1), Threshold: &thr})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 6; ts++ {
		step(ts)
	}
	snap, err := src.ExportQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	held, err := src.Result(id)
	if err != nil || len(held) == 0 {
		t.Fatalf("result: %v, %d entries", err, len(held))
	}

	// The snapshot section as the older writer laid it out.
	e := &enc{}
	if err := encodeSpec(e, snap.Spec); err != nil {
		t.Fatal(err)
	}
	e.uvarint(uint64(snap.Dims))
	e.uvarint(uint64(snap.GridRes))
	e.u8(byte(snap.Mode))
	e.f64(snap.TopScore)
	e.f64(snap.RegScore)
	encodeEntries(e, nil) // TMA top list
	e.uvarint(0)          // SMA skyband
	encodeEntries(e, held)
	encodeEntries(e, held)
	e.uvarint(0) // influence cells
	e.varint(snap.Cost)
	d := &dec{buf: e.buf}
	old := decodeSnapshot(d, newResolver(src.WindowTail()))
	if err := d.done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	imported, err := dst.ImportQuery(old)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if got, _ := dst.Result(imported); renderEntries(got) != renderEntries(held) {
		t.Fatalf("imported result %s, want %s", renderEntries(got), renderEntries(held))
	}
	for ts := int64(6); ts < 14; ts++ {
		if u := step(ts); renderUpdates(u[0]) != renderUpdates(u[1]) {
			t.Fatalf("cycle %d: updates diverged\nsrc: %s\ndst: %s", ts, renderUpdates(u[0]), renderUpdates(u[1]))
		}
	}
	if err := dst.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreReopenedWALKeepsWatermark is the regression test for a
// silent data-loss bug: a reopened rotated (hence empty) WAL derived its
// next index from the surviving records — zero — while the manifest
// watermark stayed high, so every record appended after a Restore sat
// below the watermark and the next Restore skipped all of them. A clean
// Close (checkpoint + rotation) followed by Restore, a few cycles, a
// crash and a second Restore must come back with those cycles intact.
func TestRestoreReopenedWALKeepsWatermark(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(120), TargetCells: 64}
	dir := t.TempDir()
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	// Every: 0 — checkpoint only at Close, so the post-restore cycles
	// below live exclusively in the reopened WAL.
	g, err := NewGuard(eng, dir, GuardOptions{})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	d := newDriver(t, opts, g)
	d.register(specsFor(opts)[0])
	for i := 0; i < 4; i++ {
		d.cycle(20, 0)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	restored, _, err := Restore(dir, RestoreOptions{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	d.mon = restored
	for i := 0; i < 3; i++ {
		d.cycle(20, 0)
	}
	d.checkState()
	if err := restored.Abandon(); err != nil {
		t.Fatalf("abandon: %v", err)
	}

	again, _, err := Restore(dir, RestoreOptions{})
	if err != nil {
		t.Fatalf("second restore: %v", err)
	}
	d.mon = again
	d.checkState()
	again.Close()
}

// TestUnregisterAppendFailure severs the log underneath a guard and
// asserts an unregister that applied but could not be logged either
// re-syncs the lineage or fails loudly and stays failed — never lets the
// guard keep extending a lineage whose restore would resurrect the
// removed query.
func TestUnregisterAppendFailure(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(80), TargetCells: 64}
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	g, err := NewGuard(eng, t.TempDir(), GuardOptions{})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	d := newDriver(t, opts, g)
	d.register(specsFor(opts)[0])
	d.cycle(15, 0)
	// Kill the log file: the unregister append and the re-sync
	// checkpoint's rotation both fail from here on.
	g.wal.f.Close()
	if err := g.Unregister(d.ids[0]); err == nil {
		t.Fatal("unregister with a dead WAL reported success")
	}
	if _, err := g.Step(99, nil); err == nil {
		t.Fatal("broken guard accepted a batch")
	}
	if _, err := g.Register(specsFor(opts)[0]); err == nil {
		t.Fatal("broken guard accepted a registration")
	}
	g.Abandon()
}

// TestDropDuringCheckpointSurvivesRotation reproduces the window between
// a checkpoint's watermark capture and its WAL rotation: a drop logged in
// that window used to receive an index at or above the new watermark yet
// be erased by the rotation, silently losing the advisory accounting. The
// Aux hook runs inside Checkpoint — exactly in the window — standing in
// for the pipeline's producer goroutine.
func TestDropDuringCheckpointSurvivesRotation(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(60), TargetCells: 64}
	dir := t.TempDir()
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	var g *Guard
	aux := func() []byte {
		if g != nil {
			g.LogDrop(7, false, nil, nil)
		}
		return nil
	}
	g, err = NewGuard(eng, dir, GuardOptions{Aux: aux})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	d := newDriver(t, opts, g)
	d.cycle(10, 0)
	if err := g.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	m, _, err := readCheckpoint(dir)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if err := g.Abandon(); err != nil {
		t.Fatalf("abandon: %v", err)
	}
	w, recs, err := OpenWAL(filepath.Join(dir, walName), SyncNone)
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	w.Close()
	var drops []Record
	for _, rec := range recs {
		if rec.Kind == RecordDrop {
			drops = append(drops, rec)
		}
	}
	if len(drops) != 1 || drops[0].Now != 7 {
		t.Fatalf("drop logged mid-checkpoint not in rotated WAL: records %+v", recs)
	}
	if drops[0].Index < m.walNext {
		t.Fatalf("surviving drop index %d below watermark %d", drops[0].Index, m.walNext)
	}
}

// TestRestoreErrors drives every corruption mode into its typed error.
func TestRestoreErrors(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(50), TargetCells: 64}
	freshLineage := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		eng, err := core.NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGuard(eng, dir, GuardOptions{Every: 2})
		if err != nil {
			t.Fatal(err)
		}
		d := newDriver(t, opts, g)
		d.register(specsFor(opts)[0])
		for i := 0; i < 5; i++ {
			d.cycle(20, 0)
		}
		if err := g.Abandon(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("no-checkpoint", func(t *testing.T) {
		if _, _, err := Restore(t.TempDir(), RestoreOptions{}); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("got %v, want ErrNoCheckpoint", err)
		}
	})

	t.Run("truncated-manifest", func(t *testing.T) {
		dir := freshLineage(t)
		path := filepath.Join(dir, manifestName)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Restore(dir, RestoreOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad-checksum", func(t *testing.T) {
		dir := freshLineage(t)
		path := filepath.Join(dir, manifestName)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xff
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Restore(dir, RestoreOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		dir := freshLineage(t)
		path := filepath.Join(dir, manifestName)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(ckptMagic)] = 0xfe // version field
		buf[len(ckptMagic)+1] = 0xca
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Restore(dir, RestoreOptions{}); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	t.Run("version-2-lineage", func(t *testing.T) {
		// The format before this one (options block with the query-index
		// switch, threshold snapshots carrying influence cells) must be
		// refused by version, not misparsed.
		dir := freshLineage(t)
		path := filepath.Join(dir, manifestName)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(buf[len(ckptMagic):], 2)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Restore(dir, RestoreOptions{}); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	t.Run("missing-shard-file", func(t *testing.T) {
		dir := freshLineage(t)
		matches, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no shard files (%v)", err)
		}
		for _, m := range matches {
			os.Remove(m)
		}
		if _, _, err := Restore(dir, RestoreOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("wal-mid-corruption", func(t *testing.T) {
		// A lineage whose WAL holds several frames: with Every beyond the
		// cycle count the log never rotates, so corrupting the first frame
		// leaves intact frames behind it — unmistakably not a torn tail.
		dir := t.TempDir()
		eng, err := core.NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGuard(eng, dir, GuardOptions{Every: 100})
		if err != nil {
			t.Fatal(err)
		}
		d := newDriver(t, opts, g)
		d.register(specsFor(opts)[0])
		for i := 0; i < 5; i++ {
			d.cycle(20, 0)
		}
		if err := g.Abandon(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, walName)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) <= walHeaderSize+walFrameOverhead {
			t.Fatalf("WAL too small to corrupt mid-file: %d bytes", len(buf))
		}
		// Flip a payload byte of the FIRST frame: corruption with intact
		// frames behind it must fail loudly, unlike a torn tail.
		buf[walHeaderSize+walFrameOverhead] ^= 0xff
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Restore(dir, RestoreOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("wal-torn-tail", func(t *testing.T) {
		dir := freshLineage(t)
		path := filepath.Join(dir, walName)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A torn final append — half a frame of garbage — is a crash
		// artifact, not corruption: restore succeeds and drops it.
		buf = append(buf, 0x99, 0x00, 0x00, 0x00, 0xde, 0xad)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		g, _, err := Restore(dir, RestoreOptions{})
		if err != nil {
			t.Fatalf("restore with torn tail: %v", err)
		}
		g.Close()
	})
}

// TestNewGuardRefusesExistingLineage: starting a fresh lineage over a
// directory that already holds one must fail instead of silently
// destroying its crash safety.
func TestNewGuardRefusesExistingLineage(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(50), TargetCells: 64}
	dir := t.TempDir()
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(eng, dir, GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGuard(eng2, dir, GuardOptions{}); err == nil {
		t.Fatal("NewGuard over an existing lineage succeeded")
	}
}

// customScore is a scoring function outside the serializable families.
type customScore struct{}

func (customScore) Dims() int                        { return 2 }
func (customScore) Score(v geom.Vector) float64      { return v[0] }
func (customScore) Direction(dim int) geom.Direction { return geom.Increasing }
func (customScore) String() string                   { return "custom" }

// TestUnsupportedFunctionRejected: a query whose function cannot be
// persisted is refused up front, leaving the engine untouched.
func TestUnsupportedFunctionRejected(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(50), TargetCells: 64}
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(eng, t.TempDir(), GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Register(core.QuerySpec{F: customScore{}, K: 3}); !errors.Is(err, ErrUnsupportedFunction) {
		t.Fatalf("got %v, want ErrUnsupportedFunction", err)
	}
	if n := g.NumQueries(); n != 0 {
		t.Fatalf("rejected registration left %d queries", n)
	}
}

// TestWALRecordRoundTrip pins the record codec.
func TestWALRecordRoundTrip(t *testing.T) {
	thr := 1.25
	recs := []Record{
		{Kind: RecordBatch, Index: 3, Now: 17, Arrivals: []*stream.Tuple{
			{ID: 9, Seq: 4, TS: 17, Vec: geom.Vector{0.25, 0.75}},
		}},
		{Kind: RecordDrop, Index: 4, Now: 18, IsUpdate: true, Deletions: []uint64{1, 9}},
		{Kind: RecordRegister, Index: 5, Query: 7, Spec: core.QuerySpec{F: geom.NewLinear(1, 2), K: 3, Policy: core.SMA}},
		{Kind: RecordRegister, Index: 6, Query: 8, Spec: core.QuerySpec{F: geom.NewQuadratic(1, 2), Threshold: &thr}},
		{Kind: RecordUnregister, Index: 7, Query: 7},
	}
	for _, rec := range recs {
		buf, err := EncodeWALRecord(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		got, err := DecodeWALRecord(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if got.Kind != rec.Kind || got.Index != rec.Index || got.Now != rec.Now ||
			got.IsUpdate != rec.IsUpdate || got.Query != rec.Query ||
			len(got.Arrivals) != len(rec.Arrivals) || !reflect.DeepEqual(got.Deletions, rec.Deletions) {
			t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", rec, got)
		}
	}
}

// FuzzWALDecode feeds arbitrary bytes to the record decoder: it must
// never panic, never over-allocate, and anything it accepts must
// re-encode and re-decode to the same payload semantics.
func FuzzWALDecode(f *testing.F) {
	seeds := []Record{
		{Kind: RecordBatch, Now: 5, Arrivals: []*stream.Tuple{{ID: 1, Seq: 1, TS: 5, Vec: geom.Vector{0.5, 0.5}}}},
		{Kind: RecordRegister, Query: 2, Spec: core.QuerySpec{F: geom.NewLinear(1, 1), K: 2}},
		{Kind: RecordUnregister, Query: 3},
	}
	for _, rec := range seeds {
		if buf, err := EncodeWALRecord(rec); err == nil {
			f.Add(buf)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeWALRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error outside ErrCorrupt: %v", err)
			}
			return
		}
		buf, err := EncodeWALRecord(rec)
		if err != nil {
			t.Fatalf("accepted record fails to re-encode: %v", err)
		}
		if _, err := DecodeWALRecord(buf); err != nil {
			t.Fatalf("re-encoded record fails to decode: %v", err)
		}
	})
}
