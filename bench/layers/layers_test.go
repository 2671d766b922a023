package main

import (
	"os"
	"path/filepath"
	"testing"

	"topkmon/bench/work"
)

func traceSmall(t *testing.T, w work.Workload) (map[string]float64, *tracer) {
	t.Helper()
	tr := newTracer()
	v, out, err := trace(w.Scaled(50), work.Config{Seed: 1, Seconds: work.RunSeconds, TmpDir: t.TempDir()}, tr)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if out.Failed != 0 {
		t.Errorf("%s: %d of %d operations failed: %s", w.Name, out.Failed, out.Attempted, out.FirstError)
	}
	return v, tr
}

func TestTracedPass(t *testing.T) {
	for _, w := range work.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, tr := traceSmall(t, w)
			b, _ := traceSmall(t, w)

			// The names emitted equal the names declared, both ways.
			for _, d := range work.PerLayer {
				if _, ok := a[d.Name]; !ok {
					t.Errorf("declared metric %s is not emitted", d.Name)
				}
				if d.Exact && a[d.Name] != b[d.Name] {
					t.Errorf("count %s differs between two runs of seed 1: %v, %v", d.Name, a[d.Name], b[d.Name])
				}
			}
			if len(a) != len(work.PerLayer) {
				t.Errorf("%d metrics emitted, %d declared", len(a), len(work.PerLayer))
			}

			// Layers above core exist on the paced workload only.
			stack := w.Kind == work.Paced
			for _, name := range []string{"shard.step_us_p50", "recovery.checkpoint_bytes", "pipeline.deliver_us_p50", "topkmon.restore_ms"} {
				if (a[name] > 0) != stack {
					t.Errorf("%s = %v on %s", name, a[name], w.Name)
				}
			}
			for _, name := range []string{"core.step_ns_per_tuple", "grid.insert_ns_per_tuple", "qindex.clusters", "topk.cells_per_compute", "simd.dot_ns_per_point"} {
				if !(a[name] > 0) {
					t.Errorf("%s = %v, want a positive value", name, a[name])
				}
			}

			names := map[string]bool{}
			for _, s := range tr.spans {
				names[s.Name] = true
				if s.End < s.Start && s.Name != "queue" {
					t.Errorf("span %s of cycle %d ends before it starts", s.Name, s.Cycle)
				}
			}
			want := []string{"core.step"}
			if stack {
				want = append(want, "shard.step", "recovery.step", "guard.step", "cycle", "ingest", "queue", "deliver")
			}
			for _, name := range want {
				if !names[name] {
					t.Errorf("no %s span recorded", name)
				}
			}
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
			if info, err := os.Stat(path); err != nil || info.Size() == 0 {
				t.Errorf("span file not written: %v", err)
			}
		})
	}
}
