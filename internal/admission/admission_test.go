package admission

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// drive feeds g a fixed per-cycle load: offer one batch of `arrivals`
// tuples, then observe a drain with the given occupancy. Returns the
// decision.
func drive(g *Governor, occupied, capacity, arrivals int) Decision {
	d := g.Admit(occupied, capacity, arrivals, 0)
	g.ObserveDrain(occupied, capacity, 0)
	return d
}

func TestZeroConfigDefaults(t *testing.T) {
	if !(0 < rateDecrease && rateDecrease < 1 && rateIncrease > 0 && minRate < maxRate) {
		t.Fatal("AIMD constants out of range")
	}
	if !(0 < lowWatermark && lowWatermark < highWatermark && highWatermark <= 1) {
		t.Fatal("watermarks out of order")
	}
	if memLowFraction >= memHighFraction {
		t.Fatal("memory fractions out of order")
	}
	g := New(Config{})
	if got := g.State(); got != Normal {
		t.Fatalf("fresh governor state = %v, want normal", got)
	}
	if d := g.Admit(0, 8, 100, 0); d != Admit {
		t.Fatalf("unloaded governor decision = %v, want admit", d)
	}
}

func TestStateStrings(t *testing.T) {
	for _, tc := range []struct {
		s    fmt.Stringer
		want string
	}{
		{Normal, "normal"}, {Shedding, "shedding"}, {Critical, "critical"},
		{State(9), "State(9)"},
		{Admit, "admit"}, {Shed, "shed"}, {AdmitDeletions, "admit-deletions"},
		{Decision(9), "Decision(9)"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%T(%v).String() = %q, want %q", tc.s, tc.s, got, tc.want)
		}
	}
}

func TestErrOverloadedIsSentinel(t *testing.T) {
	wrapped := fmt.Errorf("pipeline: rejected: %w", ErrOverloaded)
	if !errors.Is(wrapped, ErrOverloaded) {
		t.Fatal("wrapped ErrOverloaded not recognized by errors.Is")
	}
}

// A sustained full queue must enter Shedding and start rejecting batches;
// a sustained empty queue must return to Normal (through the hysteresis)
// and admit everything again.
func TestSheddingEntersAndExits(t *testing.T) {
	g := New(Config{Seed: 1})
	for i := 0; i < 50; i++ {
		drive(g, 8, 8, 10)
	}
	if got := g.State(); got != Shedding {
		t.Fatalf("state after sustained full queue = %v, want shedding", got)
	}
	snap := g.Snapshot()
	if snap.ShedBatches == 0 {
		t.Fatalf("no batches shed under sustained overload: %+v", snap)
	}
	if snap.SheddingDrains == 0 {
		t.Fatalf("staleness counter did not move: %+v", snap)
	}
	for i := 0; i < 100; i++ {
		drive(g, 0, 8, 10)
	}
	if got := g.State(); got != Normal {
		t.Fatalf("state after sustained empty queue = %v, want normal", got)
	}
	before := g.Snapshot().ShedBatches
	for i := 0; i < 20; i++ {
		if d := drive(g, 0, 8, 10); d != Admit {
			t.Fatalf("recovered governor decision = %v, want admit", d)
		}
	}
	if after := g.Snapshot().ShedBatches; after != before {
		t.Fatalf("recovered governor still shedding: %d -> %d", before, after)
	}
}

// In Shedding the token bucket must bound the admitted rate: with the rate
// floored at minRate, the admitted fraction over a long full-queue run
// stays near minRate — neither zero (starvation) nor unbounded.
func TestAIMDBoundsAdmittedFraction(t *testing.T) {
	g := New(Config{Seed: 7})
	for i := 0; i < 30; i++ {
		drive(g, 8, 8, 1) // force Shedding and cut the rate to the floor
	}
	start := g.Snapshot()
	const n = 4000
	for i := 0; i < n; i++ {
		drive(g, 8, 8, 1)
	}
	end := g.Snapshot()
	admitted := end.Admitted - start.Admitted
	frac := float64(admitted) / float64(n)
	// The RED dropper thins the token-granted admissions further, so the
	// fraction is bounded above by ~minRate and must stay positive.
	if admitted == 0 {
		t.Fatalf("admission starved completely under sustained overload")
	}
	if frac > 0.25 {
		t.Fatalf("admitted fraction %.3f under sustained overload, want <= 0.25 (rate floor 0.125)", frac)
	}
}

// The latency trigger must cut the rate and enter Shedding even while the
// queue looks shallow.
func TestLatencyBreachTriggersShedding(t *testing.T) {
	g := New(Config{Seed: 3, CycleTarget: time.Millisecond})
	for i := 0; i < 60; i++ {
		g.Admit(4, 8, 5, 0)
		g.ObserveDrain(4, 8, (5 * time.Millisecond).Nanoseconds())
	}
	// Occupancy 0.5 sits exactly at the low watermark: the latency breach
	// alone must have cut the rate to the floor.
	if snap := g.Snapshot(); snap.Rate > minRate {
		t.Fatalf("rate %.3f after sustained latency breach, want cut to the floor", snap.Rate)
	}
	// The breach streak must also have entered Shedding: a closed-loop
	// producer paces itself to the slow consumer, so the queue never backs
	// up and occupancy alone would wave every batch through.
	if got := g.State(); got != Shedding {
		t.Fatalf("state after sustained latency breach = %v, want shedding", got)
	}
	shed := 0
	for i := 0; i < 32; i++ {
		if g.Admit(4, 8, 5, 0) == Shed {
			shed++
		}
		g.ObserveDrain(4, 8, (5 * time.Millisecond).Nanoseconds())
	}
	if shed == 0 {
		t.Fatal("no batches shed while every cycle blows the latency budget")
	}
	// Cycles back under budget with a draining queue: the governor must
	// re-earn Normal through the healthy-streak hysteresis.
	for i := 0; i < 200 && g.State() != Normal; i++ {
		g.Admit(0, 8, 1, 0)
		g.ObserveDrain(0, 8, (100 * time.Microsecond).Nanoseconds())
	}
	if got := g.State(); got != Normal {
		t.Fatalf("state after load subsided = %v, want normal", got)
	}
}

// The memory watermark must force Critical from any state, strip arrivals
// while critical, keep deletion-only batches flowing, and release through
// Shedding once memory recovers.
func TestMemoryWatermarkForcesCritical(t *testing.T) {
	g := New(Config{Seed: 5, MemLimit: 1 << 20})
	g.ObserveMemory(1<<20, 0)
	if got := g.State(); got != Critical {
		t.Fatalf("state with memory at the limit = %v, want critical", got)
	}
	if d := g.Admit(0, 8, 10, 2); d != AdmitDeletions {
		t.Fatalf("critical decision with arrivals = %v, want admit-deletions", d)
	}
	if d := g.Admit(0, 8, 0, 5); d != Admit {
		t.Fatalf("critical decision for deletion-only batch = %v, want admit", d)
	}
	snap := g.Snapshot()
	if snap.StrippedBatches != 1 || snap.ShedTuples != 10 {
		t.Fatalf("critical accounting: %+v, want 1 stripped batch / 10 shed tuples", snap)
	}
	// A cycle drains while still critical: the staleness counter moves.
	g.ObserveDrain(0, 8, 0)
	// Engine memory recovers (process heap was never reported high).
	g.ObserveMemory(1<<18, 0)
	for i := 0; i < 100; i++ {
		drive(g, 0, 8, 1)
	}
	if got := g.State(); got != Normal {
		t.Fatalf("state after memory recovery and drained queue = %v, want normal", got)
	}
	snapAfter := g.Snapshot()
	if snapAfter.Transitions < 3 {
		t.Fatalf("transitions = %d, want >= 3 (normal->critical->shedding->normal)", snapAfter.Transitions)
	}
	if snapAfter.CriticalDrains == 0 {
		t.Fatalf("critical staleness counter did not move: %+v", snapAfter)
	}
}

// The process-heap figure must drive the watermark when it exceeds the
// engine figure.
func TestMemoryWatermarkUsesMaxOfSources(t *testing.T) {
	g := New(Config{MemLimit: 1 << 20})
	g.ObserveMemory(1<<10, 1<<20)
	if got := g.State(); got != Critical {
		t.Fatalf("state with process heap at the limit = %v, want critical", got)
	}
}

// Two governors with the same seed and the same input sequence must make
// identical decisions — the replayability contract behind the overload
// differential test.
func TestDecisionsDeterministic(t *testing.T) {
	mk := func() []Decision {
		g := New(Config{Seed: 42})
		var out []Decision
		occ := 0
		for i := 0; i < 500; i++ {
			// A deterministic sawtooth load: fill for 20 cycles, drain for 10.
			if i%30 < 20 {
				occ = min(occ+1, 8)
			} else {
				occ = max(occ-2, 0)
			}
			out = append(out, g.Admit(occ, 8, 3, 1))
			g.ObserveDrain(occ, 8, 0)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// The RED ramp must be monotone in occupancy: 0 below the low watermark,
// maxDropProb at and beyond the high watermark (capped so the token
// floor stays meaningful).
func TestDropProbRamp(t *testing.T) {
	g := New(Config{})
	set := func(occ float64) { g.avgOcc = occ }
	set(lowWatermark - 0.01)
	if p := g.dropProbLocked(); p != 0 {
		t.Fatalf("p(%v) = %v, want 0", g.avgOcc, p)
	}
	set(highWatermark)
	if p := g.dropProbLocked(); math.Abs(p-maxDropProb) > 1e-9 {
		t.Fatalf("p(high) = %v, want %v", p, maxDropProb)
	}
	set(1)
	if p := g.dropProbLocked(); math.Abs(p-maxDropProb) > 1e-9 {
		t.Fatalf("p(full) = %v, want cap %v", p, maxDropProb)
	}
	prev := -1.0
	for occ := 0.0; occ <= 1.0; occ += 0.01 {
		set(occ)
		if p := g.dropProbLocked(); p < prev {
			t.Fatalf("ramp not monotone at occ=%.2f: %v < %v", occ, p, prev)
		} else {
			prev = p
		}
	}
}

// The Normal-state fast path — one Admit decision plus one ObserveDrain
// per batch, what the pipeline runner pays on every healthy cycle — must
// not allocate. The benchsuite AdmissionOverhead pair bounds its time
// cost; this pins the allocation side exactly.
func TestNormalFastPathZeroAlloc(t *testing.T) {
	g := New(Config{Seed: 1})
	allocs := testing.AllocsPerRun(1000, func() {
		g.Admit(0, 8, 500, 0)
		g.ObserveDrain(0, 8, 1)
	})
	if allocs != 0 {
		t.Fatalf("normal-state fast path allocates %.1f per batch, want 0", allocs)
	}
	if got := g.State(); got != Normal {
		t.Fatalf("state after idle fast-path loop = %v, want normal", got)
	}
}

// Concurrent decisions, observations and reads must be race-free (run
// under -race) and keep counters consistent.
func TestGovernorRaceStress(t *testing.T) {
	g := New(Config{Seed: 1, MemLimit: 1 << 30})
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					g.Admit(i%9, 8, i%17, i%3)
				case 1:
					g.ObserveDrain(i%9, 8, int64(i))
				case 2:
					g.ObserveMemory(int64(i), int64(i))
				default:
					_ = g.State()
					_ = g.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := g.Snapshot()
	if total := snap.Admitted + snap.ShedBatches + snap.StrippedBatches; total == 0 {
		t.Fatalf("no decisions recorded: %+v", snap)
	}
}

// TestIdleRecoveryFromShedding is the recovery-livelock regression: token
// refill rides drain observations, so a bucket that hit empty during the
// burst would — without the idle refill in Admit — shed every later batch,
// see no drains, and stay in Shedding forever even with the queue empty.
func TestIdleRecoveryFromShedding(t *testing.T) {
	g := New(Config{Seed: 5})
	for i := 0; i < 50; i++ {
		drive(g, 8, 8, 10)
	}
	if g.State() != Shedding {
		t.Fatalf("setup: state %v, want shedding", g.State())
	}
	// Exhaust the bucket without any further drains.
	shed := false
	for i := 0; i < 64 && !shed; i++ {
		shed = g.Admit(8, 8, 1, 0) == Shed
	}
	if !shed {
		t.Fatal("setup: token bucket never drained")
	}
	// The load is gone: every subsequent offer finds an empty queue. The
	// governor must admit again within a bounded number of offers and then
	// re-earn Normal — not starve the stream forever.
	admitted := false
	for i := 0; i < 500 && !admitted; i++ {
		admitted = g.Admit(0, 8, 1, 0) == Admit
	}
	if !admitted {
		t.Fatal("idle governor starved the stream: no admission in 500 offers")
	}
	for i := 0; i < 500 && g.State() != Normal; i++ {
		g.Admit(0, 8, 1, 0)
	}
	if g.State() != Normal {
		t.Fatalf("governor never recovered from an idle queue: state %v", g.State())
	}
}
