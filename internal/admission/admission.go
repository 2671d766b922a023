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
//     (and on to certainty as the queue approaches full), shedding early
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

// Config tunes the governor. The zero value selects workable defaults for
// every field (and no memory limit); see each field's default.
type Config struct {
	// RateIncrease is the AIMD additive raise: how much the token refill
	// rate (admitted batches per drained batch) grows on each healthy
	// drain observation. Default 0.25.
	RateIncrease float64
	// RateDecrease is the AIMD multiplicative cut factor in (0, 1),
	// applied when queue depth or cycle latency breaches its target.
	// Default 0.5.
	RateDecrease float64
	// MinRate floors the admitted rate so shedding never starves the
	// stream entirely while the engine drains. Default 0.125 (one batch
	// admitted per eight drained).
	MinRate float64
	// MaxRate caps the token refill rate. Default 64.
	MaxRate float64

	// LowWatermark and HighWatermark bound the RED ramp, as fractions of
	// the queue capacity: below Low the drop probability is zero (and
	// sustained occupancy there exits Shedding); at and beyond High it
	// holds at MaxDropProb (and crossing High enters Shedding). The
	// probability is deliberately capped below certainty: past the high
	// watermark the AIMD token bucket is the binding constraint, and the
	// cap keeps its MinRate floor meaningful — shedding thins the stream,
	// it never starves it. Defaults 0.5 and 0.85.
	LowWatermark  float64
	HighWatermark float64
	// MaxDropProb is the RED drop probability at and beyond the high
	// watermark. Default 0.9.
	MaxDropProb float64
	// OccupancyAlpha is the EWMA smoothing factor for queue occupancy
	// (higher = more reactive). Default 0.25.
	OccupancyAlpha float64
	// Seed seeds the RED dropper's PRNG. The same seed and the same
	// decision-input sequence reproduce the same decisions.
	Seed int64

	// CycleTarget is the per-cycle latency target: a drain or hot-shard
	// EWMA observation above it counts as a breach even while the queue
	// looks shallow. Zero disables the latency trigger.
	CycleTarget time.Duration

	// MemLimit is the hard memory limit in bytes. When the larger of the
	// engine footprint and the process heap crosses MemHighFraction of it
	// the governor forces Critical; it leaves Critical once memory falls
	// below MemLowFraction and the queue has drained below the low
	// watermark. Zero disables the memory watermark.
	MemLimit int64
	// MemHighFraction and MemLowFraction are the enter/leave fractions of
	// MemLimit for the Critical state. Defaults 0.9 and 0.7.
	MemHighFraction float64
	MemLowFraction  float64

	// HealthyExit is the number of consecutive healthy drain observations
	// required to leave Shedding — the hysteresis that keeps a square-wave
	// load from flapping the state machine every cycle. Default 4.
	HealthyExit int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.RateIncrease <= 0 {
		c.RateIncrease = 0.25
	}
	if c.RateDecrease <= 0 || c.RateDecrease >= 1 {
		c.RateDecrease = 0.5
	}
	if c.MinRate <= 0 {
		c.MinRate = 0.125
	}
	if c.MaxRate <= c.MinRate {
		c.MaxRate = 64
	}
	if c.LowWatermark <= 0 {
		c.LowWatermark = 0.5
	}
	if c.HighWatermark <= c.LowWatermark || c.HighWatermark > 1 {
		c.HighWatermark = 0.85
	}
	if c.MaxDropProb <= 0 || c.MaxDropProb > 1 {
		c.MaxDropProb = 0.9
	}
	if c.OccupancyAlpha <= 0 || c.OccupancyAlpha > 1 {
		c.OccupancyAlpha = 0.25
	}
	if c.MemHighFraction <= 0 || c.MemHighFraction > 1 {
		c.MemHighFraction = 0.9
	}
	if c.MemLowFraction <= 0 || c.MemLowFraction >= c.MemHighFraction {
		c.MemLowFraction = 0.7
	}
	if c.HealthyExit <= 0 {
		c.HealthyExit = 4
	}
	return c
}

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
// breachEnter is the consecutive-latency-breach streak that moves Normal
// to Shedding on its own: two measured cycles over budget rule out a
// one-off stall without letting a sustained breach hide behind a shallow
// queue.
const breachEnter = 2

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
	// avgOcc is the EWMA ingest-queue occupancy fraction (RED's \bar{q});
	// avgShard is the EWMA of the busiest shard's job-queue occupancy,
	// kept separate so an empty ingest queue cannot dilute a pegged
	// shard's signal. Decisions use the larger of the two.
	avgOcc   float64
	avgShard float64
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

// New builds a governor. The zero Config is valid: defaults throughout and
// no memory limit.
func New(cfg Config) *Governor {
	cfg = cfg.withDefaults()
	g := &Governor{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		// Start at the ceiling: overload is discovered by cuts, so an
		// unloaded system admits everything from the first batch.
		rate:   cfg.MaxRate,
		tokens: cfg.MaxRate,
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
		AvgOccupancy:    g.pressureLocked(),
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
// nanoseconds (zero when the caller has no per-cycle measurement, e.g. on
// the overlapped sharded path — the hot-shard EWMA carries the latency
// signal there). Refills the AIMD token bucket and adjusts the rate.
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
		// Only a measured healthy cycle breaks the streak: the overlapped
		// sharded path drains with cycleNS == 0 and must not launder a
		// breach streak the hot-shard EWMA built up.
		g.breaches = 0
	}
	switch {
	case latencyBreach || g.pressureLocked() >= g.cfg.HighWatermark:
		// Multiplicative decrease: the engine is not keeping up.
		g.rate *= g.cfg.RateDecrease
		if g.rate < g.cfg.MinRate {
			g.rate = g.cfg.MinRate
		}
		g.healthy = 0
	case g.pressureLocked() < g.cfg.LowWatermark:
		// Additive increase on a healthy cycle.
		g.rate += g.cfg.RateIncrease
		if g.rate > g.cfg.MaxRate {
			g.rate = g.cfg.MaxRate
		}
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
// MinRate < 1 the bucket must still be able to accumulate a full token,
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

// ObserveShard folds the busiest shard's signals in: its job queue holds
// depth of capacity slots and its per-cycle EWMA is ewmaNS. A single hot
// shard raises the smoothed occupancy (and, past the latency target,
// breaks the healthy streak) before the global ingest queue ever backs up.
//
//topk:deterministic
func (g *Governor) ObserveShard(depth, capacity int, ewmaNS int64) {
	if capacity <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	frac := float64(depth) / float64(capacity)
	if frac > 1 {
		frac = 1
	}
	if g.cfg.CycleTarget > 0 && ewmaNS > 0 && ewmaNS <= g.cfg.CycleTarget.Nanoseconds() {
		// A deep inbox on a shard that drains within budget is pipelined
		// ingestion doing its job — the headroom exists precisely so a fast
		// shard can run ahead — not overload. Only a shard that is also over
		// the latency budget registers as occupancy pressure.
		frac = 0
	}
	g.avgShard += g.cfg.OccupancyAlpha * (frac - g.avgShard)
	if g.cfg.CycleTarget > 0 && ewmaNS > 0 {
		if ewmaNS > g.cfg.CycleTarget.Nanoseconds() {
			g.healthy = 0
			g.breaches++
		} else {
			g.breaches = 0
		}
	}
	g.reviewLocked()
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
	g.avgOcc += g.cfg.OccupancyAlpha * (frac - g.avgOcc)
}

// pressureLocked is the occupancy figure decisions run on: the larger of
// the smoothed ingest-queue and hot-shard occupancies. Callers hold mu.
func (g *Governor) pressureLocked() float64 {
	if g.avgShard > g.avgOcc {
		return g.avgShard
	}
	return g.avgOcc
}

// memLocked returns the memory figure the Critical watermark judges: the
// larger of the engine footprint and the process heap. Callers hold mu.
func (g *Governor) memLocked() int64 {
	if g.processBytes > g.engineBytes {
		return g.processBytes
	}
	return g.engineBytes
}

// dropProbLocked is the RED ramp over the smoothed occupancy pressure:
// zero below the low watermark, linear to MaxDropProb at the high
// watermark, held there beyond it (the token bucket binds past the high
// watermark; capping below certainty keeps the MinRate floor meaningful).
// Callers hold mu.
func (g *Governor) dropProbLocked() float64 {
	lo, hi := g.cfg.LowWatermark, g.cfg.HighWatermark
	occ := g.pressureLocked()
	switch {
	case occ <= lo:
		return 0
	case occ >= hi:
		return g.cfg.MaxDropProb
	default:
		return g.cfg.MaxDropProb * (occ - lo) / (hi - lo)
	}
}

// reviewLocked runs the state machine after any observation. Transitions
// are deterministic functions of the smoothed occupancy, the healthy
// streak and the latest memory figures; memory outranks everything.
// Callers hold mu.
func (g *Governor) reviewLocked() {
	memHigh := g.cfg.MemLimit > 0 &&
		float64(g.memLocked()) >= float64(g.cfg.MemLimit)*g.cfg.MemHighFraction
	memRecovered := g.cfg.MemLimit <= 0 ||
		float64(g.memLocked()) < float64(g.cfg.MemLimit)*g.cfg.MemLowFraction
	switch State(g.state.Load()) {
	case Normal:
		if memHigh {
			g.transitionLocked(Critical)
			return
		}
		if g.pressureLocked() >= g.cfg.HighWatermark || g.breaches >= breachEnter {
			g.transitionLocked(Shedding)
		}
	case Shedding:
		if memHigh {
			g.transitionLocked(Critical)
			return
		}
		if g.pressureLocked() < g.cfg.LowWatermark && g.healthy >= g.cfg.HealthyExit {
			g.transitionLocked(Normal)
		}
	case Critical:
		if !memHigh && memRecovered && g.pressureLocked() < g.cfg.LowWatermark {
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
		g.rate *= g.cfg.RateDecrease
		if g.rate < g.cfg.MinRate {
			g.rate = g.cfg.MinRate
		}
		if g.tokens > g.rate+1 {
			g.tokens = g.rate + 1
		}
	}
}
