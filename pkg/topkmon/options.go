package topkmon

import (
	"fmt"

	"topkmon/internal/pipeline"
	"topkmon/internal/stack"
	"topkmon/internal/window"
)

// Clock supplies the timestamp for clock-driven cycles (Tick/TickUpdate).
type Clock interface {
	// Now returns the current logical or wall time. Successive calls must
	// be non-decreasing; the engine rejects time going backwards.
	Now() int64
}

// ClockFunc adapts a plain function to the Clock interface.
type ClockFunc func() int64

// Now implements Clock.
func (f ClockFunc) Now() int64 { return f() }

// Partitioning is the argument of WithPartitioning.
//
// Deprecated: data partitioning is the only layout.
type Partitioning int

// PartitionData names the data-partitioned layout, the only one.
//
// Deprecated: data partitioning is the only layout; WithShards selects it.
const PartitionData Partitioning = 1

// config collects the options New accepts. Everything structural lives in
// stack: the layers, and the engine options every layer shares.
type config struct {
	stack  stack.Config
	policy Policy
	clock  Clock
}

// Option configures a Monitor.
type Option func(*config)

// WithShards sets the number of engine shards. With n > 1 the monitor runs
// n independent engines (one goroutine each): tuples are hash-partitioned
// across the shards, every query runs on every shard, and the router
// merges the per-shard partial results. Results are identical to the
// single engine on the same stream. The default (and any n <= 1) is the
// plain single-threaded engine.
//
// The merge is not free: on the benchmark's fullstack-paced workload (two
// shards, a 2-vCPU VM) a sharded cycle takes about 1.3× a single engine's
// (shard.tax_ratio in BENCHMARK.json's per-layer pass).
func WithShards(n int) Option { return func(c *config) { c.stack.Shards = n } }

// WithPartitioning does nothing. It remains only because the benchmark
// module (bench/work) still passes it; a change to the benchmark removes
// that call, and then this option.
//
// Deprecated: data partitioning is the only layout.
func WithPartitioning(Partitioning) Option { return func(*config) {} }

// WithPipeline enables asynchronous pipelined ingestion with the given
// queue depth (values below 1 select the tuned default). The monitor then
// accepts batches through Ingest/IngestUpdate without waiting for the
// processing cycle, delivers each cycle's merged updates in order on the
// Updates channel, and turns Register/Unregister/Result and the counter
// reads into barriers, so any interleaving of calls behaves exactly like
// the same interleaving of synchronous Steps. Step/StepUpdate/Tick are
// rejected on a pipelined monitor; Flush is the delivery barrier. The
// Updates channel must be drained (it closes after Close). Results are
// identical to the synchronous monitor's on the same stream — only the
// caller no longer waits for them. The queue depth is fixed: a full queue
// makes Ingest wait, so a pipelined monitor loses nothing unless
// WithAdmission installs the load-shedding governor.
func WithPipeline(depth int) Option {
	return func(c *config) {
		if depth < 1 {
			depth = pipeline.DefaultDepth
		}
		c.stack.PipeDepth = depth
	}
}

// WithAdmission enables the load-shedding admission governor in front of
// the pipelined ingest queue (requires WithPipeline; New rejects other
// combinations). Under sustained overload the governor degrades service
// in bounded, observable steps instead of letting the queue, the latency
// or the memory footprint grow without limit: an AIMD rate controller
// converges the admitted batch rate onto what the engine actually drains,
// a RED-style dropper thins bursts probabilistically as smoothed queue
// occupancy climbs from 0.5 to 0.85 of the queue depth (drop probability
// 0 to 0.9), and a memory watermark forces the deletions-only Critical
// state once the larger of the engine's cap-aware footprint and the
// process heap crosses 0.9 of cfg.MemLimit bytes: arrivals are then
// stripped while cycles — and window expiry — keep running, so state
// shrinks until memory falls below 0.7 of the limit. Two consecutive
// cycles over cfg.CycleTarget also enter shedding. Shed batches are
// counted in Stats.DroppedBatches/DroppedTuples, drop-logged into the WAL
// on a checkpointed monitor, and surface as ErrOverloaded from Ingest.
// Decisions are deterministic given cfg.Seed and the observed load, which
// is what the overload differential suite leans on. The zero
// AdmissionConfig is valid: no latency trigger, no memory limit. See the
// package doc's "Overload and admission control" section for the state
// machine and the bounded-staleness contract.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *config) { c.stack.Admission = &cfg }
}

// WithPolicy sets the default maintenance policy used by RegisterTopK.
// Queries registered through Register carry their own policy in the spec.
// The default is SMA, the paper's recommended algorithm.
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p } }

// WithStreamMode selects the stream model. The default is AppendOnly
// (sliding window); UpdateStream enables explicit deletions via StepUpdate
// and TickUpdate and needs no window.
func WithStreamMode(m StreamMode) Option { return func(c *config) { c.stack.Engine.Mode = m } }

// WithClock installs the clock that stamps Tick/TickUpdate cycles. The
// default is a logical clock that advances by one per tick.
func WithClock(clk Clock) Option { return func(c *config) { c.clock = clk } }

// WithCountWindow monitors the n most recent tuples (count-based window).
// AppendOnly mode requires exactly one of WithCountWindow or
// WithTimeWindow.
func WithCountWindow(n int) Option {
	return func(c *config) { c.stack.Engine.Window = window.Count(n) }
}

// WithTimeWindow monitors the tuples of the last span time units
// (time-based window).
func WithTimeWindow(span int64) Option {
	return func(c *config) { c.stack.Engine.Window = window.Time(span) }
}

// WithCheckpoint enables durability: the monitor write-ahead-logs every
// batch and query operation into dir and checkpoints its full state there
// every `every` successful cycles (and at Close). After a crash, Restore
// rebuilds a monitor from the directory that is byte-identical to the one
// that died — same results, same update streams, same query ids — having
// replayed the WAL suffix past the last checkpoint. every <= 0 checkpoints
// only at Close, leaving crash safety to the WAL alone. The directory must
// be empty (or absent): resuming an existing lineage goes through Restore.
// See the package doc's durability-guarantees section for the exact
// contract.
func WithCheckpoint(dir string, every int) Option {
	return func(c *config) {
		c.stack.Dir = dir
		c.stack.Every = every
	}
}

// WithCheckpointSync makes the write-ahead log fsync after every appended
// batch, bounding loss on an OS or power crash to nothing at all — at the
// cost of one fsync per cycle. The default leaves WAL flushing to the OS
// (process crashes still lose nothing; a machine crash can lose the
// suffix since the last checkpoint). Checkpoints themselves always fsync.
// It has no effect without WithCheckpoint.
func WithCheckpointSync() Option { return func(c *config) { c.stack.Sync = true } }

// WithTargetCells sets the approximate total grid cell count from which
// the per-axis resolution is derived. The default is the paper's tuned
// 12^4 cells.
func WithTargetCells(n int) Option { return func(c *config) { c.stack.Engine.TargetCells = n } }

// validate checks the engine options in the options' own terms;
// stack.Config.Validate owns the rules about which layers combine.
func (c *config) validate() error {
	if c.stack.Engine.Dims <= 0 {
		return fmt.Errorf("topkmon: dims must be positive, got %d", c.stack.Engine.Dims)
	}
	if c.stack.Engine.Mode == AppendOnly && c.stack.Engine.Window == (window.Spec{}) {
		return fmt.Errorf("topkmon: append-only mode needs WithCountWindow or WithTimeWindow")
	}
	return nil
}
