package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/stack"
)

// crashModes is the subset of the execution matrix the crash-recovery
// differential covers: the synchronous modes, because Swap requires a
// synchronous replay.
func crashModes() []execMode {
	var out []execMode
	for _, m := range allModes() {
		if m.cfg.PipeDepth == 0 {
			out = append(out, m)
		}
	}
	return out
}

// runCrashDifferential replays the scenario for seed through each crash
// mode's stack with a durability guard and kills the monitor twice (Abandon:
// no final checkpoint, exactly what a crash leaves behind), restoring
// from the checkpoint directory each time, and asserts the stitched
// transcript is byte-identical to the naive reference — recovery must be
// invisible in every subsequent update and final result, including
// across back-to-back recoveries.
//
// The first kill lands on a cycle where a checkpoint just fired, so the
// first restore reopens a freshly rotated, empty WAL and must resume the
// record index counter from the manifest watermark rather than from the
// (absent) surviving records. The second kill hits the *restored* guard
// before its next checkpoint, while every record it wrote still lives
// only in that reopened log — the double-crash lineage that once lost
// all post-restore records silently.
func runCrashDifferential(t *testing.T, seed int64) {
	t.Helper()
	s := GenScenario(seed)
	naive, err := NewNaive(s.Options())
	if err != nil {
		t.Fatalf("%v: naive: %v", s, err)
	}
	ref, err := Replay(naive, s, ReplayConfig{})
	if err != nil {
		t.Fatalf("%v: naive replay: %v", s, err)
	}
	// A small checkpoint interval keeps real WAL replay in the picture:
	// the second crash cycle lands between checkpoints, so its restore
	// exercises both the snapshot load and the log suffix.
	const every = 3
	// Cycles where the guard's checkpoint cadence fires as the cycle
	// completes: the guard steps the prefill plus cycles 0..c, so the
	// counter hits `every` at c ≡ every-2 (mod every). The last cycle is
	// excluded to leave room for the second crash.
	var aligned []int
	for c := every - 2; c < len(s.Cycles)-1; c += every {
		aligned = append(aligned, c)
	}
	if len(aligned) == 0 {
		t.Fatalf("%v: too few cycles for a checkpoint-aligned crash", s)
	}
	h := uint64(seed * 2654435761)
	crash1 := aligned[h%uint64(len(aligned))]
	// Strictly before the restored guard's first checkpoint at
	// crash1+every, so the second restore must replay the reopened log.
	span := len(s.Cycles) - crash1 - 1
	if span > every-1 {
		span = every - 1
	}
	crash2 := crash1 + 1 + int((h>>16)%uint64(span))

	for _, m := range crashModes() {
		dir := t.TempDir()
		m.cfg.Dir, m.cfg.Every = dir, every
		st, err := m.build(s)
		if err != nil {
			t.Fatalf("%v: build %s: %v", s, m.name, err)
		}
		// Replay reassigns its local monitor at the swap; track the live
		// guard here so the final Close lands on the restored instance.
		live := st.Guard
		cfg := ReplayConfig{
			Swap: func(cycle int, mon core.StreamMonitor) (core.StreamMonitor, error) {
				if cycle != crash1 && cycle != crash2 {
					return nil, nil
				}
				if err := live.Abandon(); err != nil {
					return nil, fmt.Errorf("abandon: %w", err)
				}
				restored, _, err := stack.Restore(dir)
				if err != nil {
					return nil, fmt.Errorf("restore: %w", err)
				}
				live = restored.Guard
				return restored.Mon, nil
			},
		}
		got, err := Replay(st.Mon, s, cfg)
		if cerr := live.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%v: %s crash@%d,%d replay: %v", s, m.name, crash1, crash2, err)
		}
		if d := got.Diff(ref); d != "" {
			t.Fatalf("%v: %s crash@%d,%d diverged from naive reference:\n%s", s, m.name, crash1, crash2, d)
		}
	}
}

// TestCrashRecoveryDifferential is the recovery counterpart of
// TestDifferentialSeeds: the same seed spread, with a kill-and-restore
// injected mid-replay in every mode.
func TestCrashRecoveryDifferential(t *testing.T) {
	n := int64(20)
	if testing.Short() {
		n = 6
	}
	for seed := int64(1); seed <= n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashDifferential(t, seed)
		})
	}
}

// TestRestoreKEntryLineage restores checkpoints written by a build whose
// TMA queries kept exactly k entries under update streams, before the
// top lists became views of up to core.DefaultKMax(k) entries: the files
// in testdata/kentry-lineage are GenScenario(11) checkpointed after cycle
// 9 by that build, on the engine and on data-sharded-3 (the guard
// checkpointed explicitly, then was abandoned). The format did not change,
// so no ckptVersion bump: each restored list imports as a view of k
// entries, and the replay that continues from the restored monitor must
// match the naive reference to the end, with the invariant checker on.
func TestRestoreKEntryLineage(t *testing.T) {
	const seed, crash = 11, 9
	s := GenScenario(seed)
	naive, err := NewNaive(s.Options())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Replay(naive, s, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModes()[:2] {
		src := filepath.Join("testdata", "kentry-lineage", m.name)
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			files, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				b, err := os.ReadFile(filepath.Join(src, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := m.build(s)
			if err != nil {
				t.Fatal(err)
			}
			var restored *stack.Stack
			cfg := ReplayConfig{
				CheckInvariants: true,
				Swap: func(cycle int, mon core.StreamMonitor) (core.StreamMonitor, error) {
					if cycle != crash {
						return nil, nil
					}
					if err := mon.Close(); err != nil {
						return nil, err
					}
					if restored, _, err = stack.Restore(dir); err != nil {
						return nil, err
					}
					return restored.Mon, nil
				},
			}
			got, err := Replay(st.Mon, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if restored == nil {
				t.Fatal("the replay never reached the checkpointed cycle")
			}
			if err := restored.Mon.Close(); err != nil {
				t.Fatal(err)
			}
			if d := got.Diff(ref); d != "" {
				t.Fatalf("%v: restored %s diverged from naive reference:\n%s", s, m.name, d)
			}
		})
	}
}
