package topkmon

import (
	"errors"
	"testing"

	"topkmon/internal/admission"
)

// drainUpdates consumes a pipelined monitor's delivery channel in the
// background so backpressure never interferes with an admission test.
func drainUpdates(m *Monitor) {
	go func() {
		for range m.Updates() {
		}
	}()
}

// TestAdmissionValidationFacade: the governor fronts the pipelined ingest
// queue, so admission options without WithPipeline are rejected; with it,
// the zero-config governor comes up in Normal.
func TestAdmissionValidationFacade(t *testing.T) {
	if _, err := New(2, WithCountWindow(10), WithAdmission(AdmissionConfig{})); err == nil {
		t.Fatal("WithAdmission without WithPipeline should be rejected")
	}

	plain, err := New(2, WithCountWindow(10))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.AdmissionControlled() {
		t.Fatal("AdmissionControlled() true without admission options")
	}
	if got := plain.AdmissionState(); got != AdmissionNormal {
		t.Fatalf("ungoverned AdmissionState() = %v, want normal", got)
	}
	if snap := plain.AdmissionStats(); snap != (AdmissionSnapshot{}) {
		t.Fatalf("ungoverned AdmissionStats() = %+v, want zero", snap)
	}

	mon, err := New(2, WithCountWindow(10), WithPipeline(2), WithAdmission(AdmissionConfig{MemLimit: 1 << 30}))
	if err != nil {
		t.Fatal(err)
	}
	drainUpdates(mon)
	defer mon.Close()
	if !mon.AdmissionControlled() {
		t.Fatal("WithAdmission did not enable the governor")
	}
	if got := mon.AdmissionState(); got != AdmissionNormal {
		t.Fatalf("fresh AdmissionState() = %v, want normal", got)
	}
}

// TestOverloadedErrorFacade is the ErrOverloaded leg of the typed-error
// regression suite (next to TestClosedErrorsFacade): a governor Shed under
// the Block policy surfaces from Ingest as the re-exported sentinel via
// errors.Is — and is distinguishable from ErrClosed.
func TestOverloadedErrorFacade(t *testing.T) {
	mon, err := New(2, WithCountWindow(1000), WithPipeline(4), WithAdmission(AdmissionConfig{Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	drainUpdates(mon)
	// Park the governor in Shedding with a drained token bucket, so the
	// next offered batch must be shed.
	for i := 0; i < 50; i++ {
		mon.gov.Admit(8, 8, 1, 0)
		mon.gov.ObserveDrain(8, 8, 0)
	}
	shed := false
	for i := 0; i < 64 && !shed; i++ {
		shed = mon.gov.Admit(8, 8, 1, 0) == admission.Shed
	}
	if !shed {
		t.Fatal("setup: token bucket never drained")
	}

	gen := NewGenerator(IND, 2, 11)
	ingErr := mon.Ingest(1, gen.Batch(10, 1))
	if !errors.Is(ingErr, ErrOverloaded) {
		t.Fatalf("shed Ingest: got %v, want ErrOverloaded", ingErr)
	}
	if errors.Is(ingErr, ErrClosed) {
		t.Fatal("overload must not classify as ErrClosed")
	}
	if snap := mon.AdmissionStats(); snap.ShedBatches == 0 {
		t.Fatalf("governor recorded no shed: %+v", snap)
	}
	if s := mon.Stats(); s.DroppedBatches != 1 || s.DroppedTuples != 10 {
		t.Fatalf("Stats dropped batches/tuples = %d/%d, want 1/10", s.DroppedBatches, s.DroppedTuples)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the closed sentinel wins over the overload one.
	if err := mon.Ingest(2, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after close: got %v, want ErrClosed", err)
	}
}

// TestMemoryLimitCriticalFacade drives the memory watermark end to end
// through the public API: a limit below the engine's own footprint forces
// Critical at the first runner-side memory sample, after which arrivals
// are stripped (NumPoints freezes) while cycles keep running.
func TestMemoryLimitCriticalFacade(t *testing.T) {
	mon, err := New(2,
		WithCountWindow(100000),
		WithTargetCells(16),
		WithPipeline(4),
		// The watermark judges the larger of the engine's MemoryBytes and
		// the sampled process heap. 16 KiB is below the engine's footprint
		// alone, so the verdict does not hang on what the heap reads.
		WithAdmission(AdmissionConfig{MemLimit: 1 << 14}),
	)
	if err != nil {
		t.Fatal(err)
	}
	drainUpdates(mon)
	gen := NewGenerator(IND, 2, 7)
	// Flushing after every batch keeps the queue empty, so occupancy never
	// moves the governor into Shedding. The runner samples memory every 16
	// applied batches; 40 batches guarantee the watermark fires mid-run.
	for ts := int64(1); ts <= 40; ts++ {
		if err := mon.Ingest(ts, gen.Batch(50, ts)); err != nil {
			t.Fatalf("ingest %d: %v", ts, err)
		}
		if err := mon.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := mon.AdmissionState(); got != AdmissionCritical {
		t.Fatalf("AdmissionState() = %v, want critical", got)
	}
	points := mon.NumPoints()
	if points == 0 {
		t.Fatal("no batch was admitted before the memory sample")
	}
	for ts := int64(41); ts <= 45; ts++ {
		if err := mon.Ingest(ts, gen.Batch(50, ts)); err != nil {
			t.Fatalf("critical ingest %d: %v", ts, err)
		}
	}
	if err := mon.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mon.NumPoints(); got != points {
		t.Fatalf("NumPoints grew %d -> %d in Critical (arrivals not stripped)", points, got)
	}
	snap := mon.AdmissionStats()
	if snap.StrippedBatches == 0 || snap.ShedTuples == 0 || snap.CriticalDrains == 0 {
		t.Fatalf("critical accounting did not move: %+v", snap)
	}
	if s := mon.Stats(); s.DroppedTuples == 0 {
		t.Fatal("stripped arrivals missing from Stats.DroppedTuples")
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionRestoreFacade: the governor configuration rides the
// checkpoint manifest — a restored monitor comes back admission-controlled
// with a fresh Normal-state governor.
func TestAdmissionRestoreFacade(t *testing.T) {
	dir := t.TempDir()
	mon, err := New(2,
		WithCountWindow(500),
		WithPipeline(2),
		WithAdmission(AdmissionConfig{Seed: 9}),
		WithCheckpoint(dir, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	drainUpdates(mon)
	gen := NewGenerator(IND, 2, 13)
	for ts := int64(1); ts <= 4; ts++ {
		if err := mon.Ingest(ts, gen.Batch(20, ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	drainUpdates(r)
	if !r.AdmissionControlled() {
		t.Fatal("restored monitor lost its admission governor")
	}
	if got := r.AdmissionState(); got != AdmissionNormal {
		t.Fatalf("restored AdmissionState() = %v, want a fresh normal governor", got)
	}
	if err := r.Ingest(5, gen.Batch(20, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
