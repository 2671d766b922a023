// Package admission is the load-shedding governor that sits ahead of the
// ingestion pipeline and turns sustained overload into bounded, observable
// staleness instead of an unbounded queue or OOM. Distributed
// sliding-window monitors degrade the same way — a site that cannot keep
// up thins its stream and reports a provably stale-but-consistent result
// rather than falling over — and the governor brings that discipline to
// the single-box engine.
//
// Three controllers cooperate behind one deterministic state machine
// (Normal → Shedding → Critical):
//
//   - An AIMD rate governor tracks the admitted-batch rate against the
//     measured drain rate through a token bucket refilled once per drained
//     batch: healthy observations raise the refill rate additively, a
//     queue-depth or cycle-latency breach cuts it multiplicatively, so the
//     admitted fraction converges onto what the engine actually sustains.
//   - A RED-style probabilistic dropper ramps its drop probability with
//     the smoothed queue occupancy between the low and high watermarks
//     (and holds it below certainty beyond the high one), shedding early
//     and randomly instead of deterministically tail-dropping bursts. The
//     PRNG is explicitly seeded, so a replay of the same decision inputs
//     reproduces the same decisions.
//   - A memory watermark fed by the engine's cap-aware MemoryBytes figure
//     plus the Go runtime's heap accounting forces Critical above a hard
//     limit. Critical admits nothing but deletions: arrivals are stripped
//     while the cycle itself (and its window expiry) still runs, so state
//     shrinks instead of growing.
//
// Every decision is a pure function of the call sequence and the seeded
// PRNG — no wall-clock reads, no global randomness — which is what lets
// the overload differential test replay the admitted subsequence through
// the reference engine and demand byte-identical transcripts. Observed
// cycle latencies are threaded in as inputs by the caller; the governor
// itself never measures time.
package admission

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is reported (wrapped) when the governor sheds a batch, so
// producers can errors.Is-distinguish load shedding from a real fault and
// retry later.
var ErrOverloaded = errors.New("admission: overloaded")

// State is the governor's degradation level.
type State int32

// Degradation levels, strictly ordered by severity.
const (
	// Normal admits everything: the queue is healthy and the engine keeps
	// up.
	Normal State = iota
	// Shedding admits probabilistically: the AIMD token bucket bounds the
	// admitted rate to the measured drain rate and the RED dropper thins
	// bursts as occupancy climbs between the watermarks.
	Shedding
	// Critical admits nothing but deletions: arrivals are stripped (the
	// cycle still runs, so window expiry keeps shrinking state) until
	// memory falls back below the low fraction of the limit.
	Critical
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Shedding:
		return "shedding"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Decision is the governor's verdict on one offered batch.
type Decision int

// Batch verdicts.
const (
	// Admit passes the batch through unchanged.
	Admit Decision = iota
	// Shed rejects the whole batch: it must not reach the engine. The
	// producer sees ErrOverloaded, and the batch is counted and
	// drop-logged.
	Shed
	// AdmitDeletions admits the cycle with its arrivals stripped: the
	// timestamp advance and any explicit deletions still apply, so window
	// expiry keeps shrinking state while no new tuples are indexed. The
	// Critical-state verdict for batches that carry arrivals.
	AdmitDeletions
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Shed:
		return "shed"
	case AdmitDeletions:
		return "admit-deletions"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Config tunes the governor. The zero value is valid: no latency trigger
// and no memory limit. Everything else the controllers run on is fixed
// (see the constants below).
type Config struct {
	// Seed seeds the RED dropper's PRNG. The same seed and the same
	// decision-input sequence reproduce the same decisions.
	Seed int64

	// CycleTarget is the per-cycle latency target: a drain observation
	// above it counts as a breach even while the queue looks shallow.
	// Zero disables the latency trigger.
	CycleTarget time.Duration

	// MemLimit is the hard memory limit in bytes. When the larger of the
	// engine footprint and the process heap crosses memHighFraction of it
	// the governor forces Critical; it leaves Critical once memory falls
	// below memLowFraction and the queue has drained below the low
	// watermark. Zero disables the memory watermark.
	MemLimit int64
}

// The controllers' fixed tuning.
const (
	// rateIncrease is the AIMD additive raise: how much the token refill
	// rate (admitted batches per drained batch) grows on each healthy
	// drain observation.
	rateIncrease = 0.25
	// rateDecrease is the AIMD multiplicative cut, applied when queue
	// occupancy or cycle latency breaches its target.
	rateDecrease = 0.5
	// minRate floors the admitted rate so shedding never starves the
	// stream while the engine drains: one batch admitted per eight
	// drained.
	minRate = 0.125
	// maxRate caps the token refill rate.
	maxRate = 64

	// lowWatermark and highWatermark bound the RED ramp, as fractions of
	// the queue capacity: below low the drop probability is zero (and
	// sustained occupancy there exits Shedding); at and beyond high it
	// holds at maxDropProb (and crossing high enters Shedding). The
	// probability is deliberately capped below certainty: past the high
	// watermark the AIMD token bucket is the binding constraint, and the
	// cap keeps its minRate floor meaningful — shedding thins the stream,
	// it never starves it.
	lowWatermark  = 0.5
	highWatermark = 0.85
	// maxDropProb is the RED drop probability at and beyond the high
	// watermark.
	maxDropProb = 0.9
	// occupancyAlpha is the EWMA smoothing factor for queue occupancy
	// (higher = more reactive).
	occupancyAlpha = 0.25

	// memHighFraction and memLowFraction are the enter/leave fractions of
	// Config.MemLimit for the Critical state.
	memHighFraction = 0.9
	memLowFraction  = 0.7

	// healthyExit is the number of consecutive healthy drain observations
	// required to leave Shedding — the hysteresis that keeps a square-wave
	// load from flapping the state machine every cycle.
	healthyExit = 4

	// breachEnter is the consecutive-latency-breach streak that moves
	// Normal to Shedding on its own: two measured cycles over budget rule
	// out a one-off stall without letting a sustained breach hide behind a
	// shallow queue.
	breachEnter = 2
)

// Snapshot is a consistent read of the governor's state and counters, for
// stats lines, sweeps and tests.
type Snapshot struct {
	// State is the current degradation level.
	State State
	// Rate is the AIMD token refill rate: admitted batches per drained
	// batch the governor currently allows in Shedding.
	Rate float64
	// AvgOccupancy is the smoothed queue occupancy fraction the RED
	// dropper decides on.
	AvgOccupancy float64
	// EngineBytes and ProcessBytes are the latest memory observations
	// (engine footprint; Go heap in use).
	EngineBytes  int64
	ProcessBytes int64
	// Admitted, ShedBatches and StrippedBatches count decisions;
	// ShedTuples counts the stream events (arrivals plus deletions) the
	// shed batches carried, plus the arrivals stripped in Critical.
	Admitted        int64
	ShedBatches     int64
	StrippedBatches int64
	ShedTuples      int64
	// Transitions counts state changes; SheddingDrains and CriticalDrains
	// count drain observations made while degraded — the bounded-staleness
	// figure (how many cycles ran with the governor interfering).
	Transitions    int64
	SheddingDrains int64
	CriticalDrains int64
}

// Governor is the admission controller. One instance fronts one pipeline;
// all methods are safe for concurrent use. State reads are lock-free; the
// decision and observation paths share one leaf mutex and never allocate,
// so the Normal-state fast path adds only a lock round-trip per batch.
type Governor struct {
	cfg Config

	// state mirrors the machine's level for lock-free State() reads; it
	// is only written under mu.
	state atomic.Int32

	// mu is a leaf lock: nothing is called and no channel is touched
	// while it is held.
	mu  sync.Mutex //topk:lockrank 42 leaf
	rng *rand.Rand
	// rate is the AIMD token refill per drained batch; tokens is the
	// bucket (capped at a small burst allowance).
	rate   float64
	tokens float64
	// avgOcc is the EWMA ingest-queue occupancy fraction (RED's \bar{q}).
	avgOcc float64
	// healthy counts consecutive healthy drain observations (hysteresis
	// for leaving Shedding).
	healthy int
	// breaches counts consecutive measured latency observations above
	// CycleTarget. The queue can stay shallow while every cycle blows the
	// budget (a closed-loop producer paces itself to the slow consumer),
	// so a sustained streak is an overload signal in its own right and
	// enters Shedding without waiting for occupancy.
	breaches int
	// latest memory observations.
	engineBytes, processBytes int64

	admitted, shedBatches, strippedBatches, shedTuples int64
	transitions                                        int64
	sheddingDrains, criticalDrains                     int64
}

// New builds a governor. The zero Config is valid: no latency trigger and
// no memory limit.
func New(cfg Config) *Governor {
	g := &Governor{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		// Start at the ceiling: overload is discovered by cuts, so an
		// unloaded system admits everything from the first batch.
		rate:   maxRate,
		tokens: maxRate,
	}
	return g
}

// State returns the current degradation level without taking the lock.
func (g *Governor) State() State { return State(g.state.Load()) }

// Snapshot returns a consistent copy of the governor's state and counters.
func (g *Governor) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Snapshot{
		State:           State(g.state.Load()),
		Rate:            g.rate,
		AvgOccupancy:    g.avgOcc,
		EngineBytes:     g.engineBytes,
		ProcessBytes:    g.processBytes,
		Admitted:        g.admitted,
		ShedBatches:     g.shedBatches,
		StrippedBatches: g.strippedBatches,
		ShedTuples:      g.shedTuples,
		Transitions:     g.transitions,
		SheddingDrains:  g.sheddingDrains,
		CriticalDrains:  g.criticalDrains,
	}
}

// Admit decides the fate of one offered batch: occupied of capacity queue
// slots are in use, and the batch carries the given arrival and deletion
// counts. The decision is deterministic given the governor's call history
// and seed.
//
//topk:deterministic
func (g *Governor) Admit(occupied, capacity, arrivals, deletions int) Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.observeOccupancyLocked(occupied, capacity)
	g.reviewLocked()
	switch State(g.state.Load()) {
	case Critical:
		if arrivals == 0 {
			// Deletion-only (or empty) batches are what Critical exists to
			// keep flowing: they only shrink state.
			g.admitted++
			return Admit
		}
		g.strippedBatches++
		g.shedTuples += int64(arrivals)
		return AdmitDeletions
	case Shedding:
		if occupied == 0 {
			// Idle refill: an empty queue at offer time means the engine has
			// drained everything in flight, so the drain-driven refill has
			// nothing left to ride. Without this credit a bucket that hit
			// empty during the burst would shed every later batch — no
			// admission, no drain, no refill, a recovery livelock. The offer
			// itself earns one refill and counts as a healthy observation;
			// the smoothed-occupancy low watermark still gates the exit.
			g.refillLocked()
			g.healthy++
			g.reviewLocked()
			if State(g.state.Load()) == Normal {
				g.admitted++
				return Admit
			}
		}
		if g.tokens < 1 {
			g.shedLocked(arrivals, deletions)
			return Shed
		}
		if p := g.dropProbLocked(); p > 0 && g.rng.Float64() < p {
			g.shedLocked(arrivals, deletions)
			return Shed
		}
		g.tokens--
		g.admitted++
		return Admit
	default: // Normal
		g.admitted++
		return Admit
	}
}

// shedLocked accounts one fully shed batch. Callers hold mu.
func (g *Governor) shedLocked(arrivals, deletions int) {
	g.shedBatches++
	g.shedTuples += int64(arrivals + deletions)
}

// ObserveDrain folds one drained batch into the controllers: the queue now
// holds occupied of capacity slots and the cycle took cycleNS wall
// nanoseconds (zero when the caller has no per-cycle measurement). Refills
// the AIMD token bucket and adjusts the rate.
//
//topk:deterministic
func (g *Governor) ObserveDrain(occupied, capacity int, cycleNS int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.observeOccupancyLocked(occupied, capacity)
	switch State(g.state.Load()) {
	case Shedding:
		g.sheddingDrains++
	case Critical:
		g.criticalDrains++
	}
	latencyBreach := g.cfg.CycleTarget > 0 && cycleNS > g.cfg.CycleTarget.Nanoseconds()
	if latencyBreach {
		g.breaches++
	} else if cycleNS > 0 {
		// Only a measured healthy cycle breaks the streak: a drain with
		// cycleNS == 0 carries no measurement.
		g.breaches = 0
	}
	switch {
	case latencyBreach || g.avgOcc >= highWatermark:
		// Multiplicative decrease: the engine is not keeping up.
		g.rate = max(g.rate*rateDecrease, minRate)
		g.healthy = 0
	case g.avgOcc < lowWatermark:
		// Additive increase on a healthy cycle.
		g.rate = min(g.rate+rateIncrease, maxRate)
		g.healthy++
	default:
		// Between the watermarks: hold the rate, break the healthy streak.
		g.healthy = 0
	}
	// One drained batch refills `rate` tokens.
	g.refillLocked()
	g.reviewLocked()
}

// refillLocked adds one rate's worth of tokens, capped at a small burst
// allowance so a long idle stretch cannot bank unlimited credit. The cap
// never falls below two whole credits: with the rate floored at
// minRate < 1 the bucket must still be able to accumulate a full token,
// or shedding would starve the stream outright. Callers hold mu.
func (g *Governor) refillLocked() {
	g.tokens += g.rate
	burst := 2 * g.rate
	if burst < 2 {
		burst = 2
	}
	if g.tokens > burst {
		g.tokens = burst
	}
}

// ObserveMemory records the latest memory figures: the engine's cap-aware
// footprint and the process heap (runtime/metrics). The larger of the two
// drives the Critical watermark.
//
//topk:deterministic
func (g *Governor) ObserveMemory(engineBytes, processBytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if engineBytes > 0 {
		g.engineBytes = engineBytes
	}
	if processBytes > 0 {
		g.processBytes = processBytes
	}
	g.reviewLocked()
}

// observeOccupancyLocked folds one queue-occupancy sample into the EWMA.
// Callers hold mu.
func (g *Governor) observeOccupancyLocked(occupied, capacity int) {
	if capacity <= 0 {
		return
	}
	frac := float64(occupied) / float64(capacity)
	if frac > 1 {
		frac = 1
	}
	g.avgOcc += occupancyAlpha * (frac - g.avgOcc)
}

// memLocked returns the memory figure the Critical watermark judges: the
// larger of the engine footprint and the process heap. Callers hold mu.
func (g *Governor) memLocked() int64 {
	if g.processBytes > g.engineBytes {
		return g.processBytes
	}
	return g.engineBytes
}

// dropProbLocked is the RED ramp over the smoothed occupancy: zero below
// the low watermark, linear to maxDropProb at the high watermark, held
// there beyond it (the token bucket binds past the high watermark; capping
// below certainty keeps the minRate floor meaningful). Callers hold mu.
func (g *Governor) dropProbLocked() float64 {
	switch occ := g.avgOcc; {
	case occ <= lowWatermark:
		return 0
	case occ >= highWatermark:
		return maxDropProb
	default:
		return maxDropProb * (occ - lowWatermark) / (highWatermark - lowWatermark)
	}
}

// reviewLocked runs the state machine after any observation. Transitions
// are deterministic functions of the smoothed occupancy, the healthy
// streak and the latest memory figures; memory outranks everything.
// Callers hold mu.
func (g *Governor) reviewLocked() {
	memHigh := g.cfg.MemLimit > 0 &&
		float64(g.memLocked()) >= float64(g.cfg.MemLimit)*memHighFraction
	memRecovered := g.cfg.MemLimit <= 0 ||
		float64(g.memLocked()) < float64(g.cfg.MemLimit)*memLowFraction
	switch State(g.state.Load()) {
	case Normal:
		if memHigh {
			g.transitionLocked(Critical)
			return
		}
		if g.avgOcc >= highWatermark || g.breaches >= breachEnter {
			g.transitionLocked(Shedding)
		}
	case Shedding:
		if memHigh {
			g.transitionLocked(Critical)
			return
		}
		if g.avgOcc < lowWatermark && g.healthy >= healthyExit {
			g.transitionLocked(Normal)
		}
	case Critical:
		if !memHigh && memRecovered && g.avgOcc < lowWatermark {
			// Step down one level: the queue still re-earns Normal through
			// the Shedding hysteresis.
			g.transitionLocked(Shedding)
		}
	}
}

// transitionLocked moves the machine to next. Entering Shedding cuts the
// rate once (the AIMD congestion event) and clamps the token bucket so a
// burst cannot ride banked Normal-state credit through the transition.
// Callers hold mu.
func (g *Governor) transitionLocked(next State) {
	if State(g.state.Load()) == next {
		return
	}
	g.state.Store(int32(next))
	g.transitions++
	g.healthy = 0
	g.breaches = 0
	if next == Shedding {
		g.rate = max(g.rate*rateDecrease, minRate)
		if g.tokens > g.rate+1 {
			g.tokens = g.rate + 1
		}
	}
}
