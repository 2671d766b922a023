package topkmon

import (
	"fmt"

	"topkmon/internal/core"
	"topkmon/internal/pipeline"
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

// Partitioning selects how a sharded monitor splits work across its
// engine shards.
type Partitioning int

// Partitioning strategies for sharded monitors (see WithPartitioning).
const (
	// PartitionQueries hash-partitions the *query set*: every shard
	// indexes the full stream and maintains a disjoint subset of the
	// queries. Best pure speed-up when query maintenance dominates, at
	// the cost of replicating the tuple index per shard (memory and
	// ingest work × shards). The default.
	PartitionQueries Partitioning = iota
	// PartitionData hash-partitions the *stream*: each shard indexes only
	// its O(N/shards) slice of the tuples, every query runs on every
	// shard, and the router k-way merges the per-shard partial top-k
	// results into the exact global answer. Index memory and ingest work
	// stay O(N) in total regardless of the shard count — the layout for
	// shard counts beyond the replication sweet spot (~8) and for windows
	// too large to replicate.
	PartitionData
)

// String implements fmt.Stringer.
func (p Partitioning) String() string {
	switch p {
	case PartitionQueries:
		return "queries"
	case PartitionData:
		return "data"
	default:
		return fmt.Sprintf("Partitioning(%d)", int(p))
	}
}

// ParsePartitioning converts "queries"/"data" to a Partitioning.
func ParsePartitioning(s string) (Partitioning, error) {
	switch s {
	case "queries", "query":
		return PartitionQueries, nil
	case "data", "tuples":
		return PartitionData, nil
	default:
		return 0, fmt.Errorf("topkmon: unknown partitioning %q", s)
	}
}

// Backpressure selects a pipelined monitor's behavior when its ingest
// queue is full (see WithPipeline).
type Backpressure int

// Backpressure policies.
const (
	// BackpressureBlock makes Ingest wait for queue space: lossless, the
	// default.
	BackpressureBlock Backpressure = iota
	// BackpressureDropOldest sheds the oldest queued batch instead of
	// blocking; shed batches are never applied and are counted in
	// Stats.DroppedBatches. A load-shedding mode for producers that must
	// not stall.
	BackpressureDropOldest
)

// String implements fmt.Stringer.
func (b Backpressure) String() string {
	switch b {
	case BackpressureBlock:
		return "block"
	case BackpressureDropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("Backpressure(%d)", int(b))
	}
}

// ParseBackpressure converts "block"/"drop"/"drop-oldest" to a
// Backpressure.
func ParseBackpressure(s string) (Backpressure, error) {
	p, err := pipeline.ParsePolicy(s)
	if err != nil {
		return 0, fmt.Errorf("topkmon: unknown backpressure policy %q", s)
	}
	return Backpressure(p), nil
}

// config collects the options New accepts.
type config struct {
	shards             int
	partition          Partitioning
	placement          Placement
	rebalanceInterval  int
	rebalanceThreshold float64
	policy             Policy
	mode               StreamMode
	clock              Clock
	window             window.Spec
	gridRes            int
	cells              int
	pipeDepth          int
	pipeMaxDepth       int
	backpressure       Backpressure
	admission          *AdmissionConfig
	memLimit           int64
	checkpointDir      string
	checkpointEvery    int
	checkpointSync     bool
	fmaKernels         bool
}

// Option configures a Monitor.
type Option func(*config)

// WithShards sets the number of engine shards. With n > 1 the monitor runs
// n independent engines (one goroutine each) and splits the work per the
// configured Partitioning — queries across shards (default) or tuples
// across shards. Either way results are identical to the single engine on
// the same stream. The default (and any n <= 1) is the plain
// single-threaded engine.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithPartitioning selects the sharding strategy: PartitionQueries (the
// default — full index per shard, disjoint query subsets) or
// PartitionData (disjoint stream slices per shard, every query everywhere,
// router-side top-k merge). It has no effect on single-engine monitors.
func WithPartitioning(p Partitioning) Option { return func(c *config) { c.partition = p } }

// WithPlacement selects the placement policy of a query-partitioned
// sharded monitor: which shard each newly registered query lands on. Use
// PlacementHash (the default), PlacementLeastLoaded, or any custom
// deterministic Placement implementation. Requires WithShards(n > 1) with
// PartitionQueries; New rejects other combinations (under PartitionData
// every query runs on every shard, so there is nothing to place).
func WithPlacement(p Placement) Option { return func(c *config) { c.placement = p } }

// WithRebalance enables periodic cost-aware shard rebalancing. Every
// interval processing cycles the monitor compares per-shard costs built
// from deterministic counters (influence events, cells processed, heap
// operations, and the cells walked by top-k queries' influence-list
// pruning — never wall time), and when the hottest
// shard's cost exceeds threshold × the mean it sheds load onto the
// coldest shard. What moves depends on the partitioning: under
// PartitionQueries the most expensive movable queries migrate live;
// under PartitionData the hottest routing buckets are reassigned, so
// future arrivals land elsewhere while resident tuples stay pinned to
// their shard until they expire — there the cost also carries a memory
// term (engine footprint plus the cap-aware per-cell bytes high-water),
// so a skewed tuple hash triggers rebalancing even when per-cycle work
// hides it. Rebalancing happens at cycle barriers and never changes
// results — the differential harness forces it mid-run and asserts
// transcripts stay byte-identical to the single engine. threshold <= 0
// selects the default (1.2); values in (0, 1) are rejected. Requires
// WithShards(n > 1). Stats.Migrations counts executed moves (query
// migrations or bucket reassignments).
func WithRebalance(interval int, threshold float64) Option {
	return func(c *config) {
		c.rebalanceInterval = interval
		c.rebalanceThreshold = threshold
	}
}

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
// caller no longer waits for them.
func WithPipeline(depth int) Option {
	return func(c *config) {
		if depth < 1 {
			depth = pipeline.DefaultDepth
		}
		c.pipeDepth = depth
	}
}

// WithAdaptiveDepth lets a pipelined monitor's ingest queue grow under
// sustained burst — the bound doubles each time a producer hits it, up to
// max — and shrink back to the configured depth whenever the queue fully
// drains, restoring the latency cap between bursts. The largest occupancy
// reached is reported in Stats.QueueHighWater. Values <= the pipeline
// depth keep the queue fixed; it has no effect without WithPipeline.
func WithAdaptiveDepth(max int) Option { return func(c *config) { c.pipeMaxDepth = max } }

// WithBackpressure selects the pipelined monitor's full-queue behavior:
// BackpressureBlock (default, lossless) or BackpressureDropOldest
// (load-shedding, counted in Stats.DroppedBatches). It has no effect
// without WithPipeline.
func WithBackpressure(b Backpressure) Option { return func(c *config) { c.backpressure = b } }

// WithAdmission enables the load-shedding admission governor in front of
// the pipelined ingest queue (requires WithPipeline; New rejects other
// combinations). Under sustained overload the governor degrades service
// in bounded, observable steps instead of letting the queue, the latency
// or the memory footprint grow without limit: an AIMD rate controller
// converges the admitted batch rate onto what the engine actually drains,
// a RED-style dropper thins bursts probabilistically as smoothed queue
// occupancy climbs between the config's watermarks, and a memory
// watermark (see WithMemoryLimit) forces the deletions-only Critical
// state above a hard limit. Shed batches are counted in
// Stats.DroppedBatches/DroppedTuples, drop-logged into the WAL on a
// checkpointed monitor, and surface as ErrOverloaded from Ingest under
// the Block backpressure policy. Decisions are deterministic given
// cfg.Seed and the observed load, which is what the overload
// differential suite leans on. The zero AdmissionConfig is valid:
// defaults throughout, no memory limit. See the package doc's "Overload
// and admission control" section for the state machine and the
// bounded-staleness contract.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *config) { c.admission = &cfg }
}

// WithMemoryLimit sets the admission governor's hard memory limit in
// bytes and enables the governor if WithAdmission did not (requires
// WithPipeline). When the larger of the engine's cap-aware footprint and
// the process heap crosses the limit's high fraction (default 0.9), the
// monitor enters the Critical state: arrivals are stripped from admitted
// batches while cycles — and window expiry — keep running, so state
// shrinks until memory falls below the low fraction (default 0.7) and
// normal admission resumes through the Shedding hysteresis. It overrides
// any MemLimit set in WithAdmission's config.
func WithMemoryLimit(bytes int64) Option {
	return func(c *config) { c.memLimit = bytes }
}

// WithPolicy sets the default maintenance policy used by RegisterTopK.
// Queries registered through Register carry their own policy in the spec.
// The default is SMA, the paper's recommended algorithm.
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p } }

// WithStreamMode selects the stream model. The default is AppendOnly
// (sliding window); UpdateStream enables explicit deletions via StepUpdate
// and TickUpdate and needs no window.
func WithStreamMode(m StreamMode) Option { return func(c *config) { c.mode = m } }

// WithClock installs the clock that stamps Tick/TickUpdate cycles. The
// default is a logical clock that advances by one per tick.
func WithClock(clk Clock) Option { return func(c *config) { c.clock = clk } }

// WithCountWindow monitors the n most recent tuples (count-based window).
// AppendOnly mode requires exactly one of WithCountWindow or
// WithTimeWindow.
func WithCountWindow(n int) Option { return func(c *config) { c.window = window.Count(n) } }

// WithTimeWindow monitors the tuples of the last span time units
// (time-based window).
func WithTimeWindow(span int64) Option { return func(c *config) { c.window = window.Time(span) } }

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
		c.checkpointDir = dir
		c.checkpointEvery = every
	}
}

// WithCheckpointSync makes the write-ahead log fsync after every appended
// batch, bounding loss on an OS or power crash to nothing at all — at the
// cost of one fsync per cycle. The default leaves WAL flushing to the OS
// (process crashes still lose nothing; a machine crash can lose the
// suffix since the last checkpoint). Checkpoints themselves always fsync.
// It has no effect without WithCheckpoint.
func WithCheckpointSync() Option { return func(c *config) { c.checkpointSync = true } }

// WithFMAKernels opts the process into the fused-multiply-add tier of
// the hardware simd leg. Fused kernels round once per multiply-add
// instead of twice, which makes block scoring faster but only
// ULP-bounded-equal to pointwise scoring — never byte-identical — so the
// tier is off by default and New rejects it in combination with
// WithCheckpoint: a checkpoint lineage's restore guarantee is
// byte-identical replay, which fused scores cannot honor across hosts
// with different legs. The setting is process-wide (it reconfigures the
// kernel dispatch, not one monitor) and fails at New when the host has no
// FMA tier (no hardware leg, or the CPU lacks the extension).
func WithFMAKernels() Option { return func(c *config) { c.fmaKernels = true } }

// WithGridRes fixes the number of grid cells per axis, overriding the
// tuned default.
func WithGridRes(res int) Option { return func(c *config) { c.gridRes = res } }

// WithTargetCells sets the approximate total grid cell count from which
// the per-axis resolution is derived. The default is the paper's tuned
// 12^4 cells.
func WithTargetCells(n int) Option { return func(c *config) { c.cells = n } }

// engineOptions translates the public configuration to core options.
func (c *config) engineOptions(dims int) (core.Options, error) {
	if dims <= 0 {
		return core.Options{}, fmt.Errorf("topkmon: dims must be positive, got %d", dims)
	}
	if c.mode == AppendOnly && c.window == (window.Spec{}) {
		return core.Options{}, fmt.Errorf("topkmon: append-only mode needs WithCountWindow or WithTimeWindow")
	}
	return core.Options{
		Dims:        dims,
		Window:      c.window,
		Mode:        c.mode,
		GridRes:     c.gridRes,
		TargetCells: c.cells,
	}, nil
}
