package stack

import (
	"path/filepath"
	"testing"

	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// TestAdmissionRequiresPipeline: the governor fronts the pipeline's queue,
// so Build refuses it without one.
func TestAdmissionRequiresPipeline(t *testing.T) {
	cfg := Config{
		Engine:    core.Options{Dims: 2, Window: window.Count(10)},
		Admission: &admission.Config{},
	}
	if _, err := Build(cfg, nil); err == nil {
		t.Fatal("Build accepted admission without a pipeline")
	}
}

// TestRestoreRebuildsEveryLayer: a lineage Build started restores into the
// same stack — shards, guard, pipeline at its depth, a fresh governor —
// with the prefilled window and queries intact.
func TestRestoreRebuildsEveryLayer(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := Config{
		Engine:    core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16},
		Shards:    2,
		PipeDepth: 3,
		Dir:       dir,
		Every:     2,
		Admission: &admission.Config{Seed: 1},
	}
	prefill := func(mon core.StreamMonitor) error {
		if _, err := mon.Register(core.QuerySpec{F: geom.NewLinear(1, 2), K: 3, Policy: core.SMA}); err != nil {
			return err
		}
		_, err := mon.Step(0, stream.NewGenerator(stream.IND, 2, 1).Batch(40, 0))
		return err
	}
	st, err := Build(cfg, prefill)
	if err != nil {
		t.Fatal(err)
	}
	if st.Guard == nil || st.Gov == nil || st.Pipe == nil || st.Mon != st.Pipe || st.Shards != 2 {
		t.Fatalf("built stack %+v: want guard, governor, pipeline in front, 2 shards", st)
	}
	if err := st.Mon.Close(); err != nil {
		t.Fatal(err)
	}

	r, _, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Mon.Close()
	if r.Guard == nil || r.Gov == nil || r.Pipe == nil || r.Mon != r.Pipe || r.Shards != 2 || r.Pipe.Depth() != 3 {
		t.Fatalf("restored stack %+v: want the built one's layers", r)
	}
	if n, q := r.Mon.NumPoints(), r.Mon.NumQueries(); n != 40 || q != 1 {
		t.Fatalf("restored %d points, %d queries; want 40 and 1", n, q)
	}
}
