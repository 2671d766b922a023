// Package core implements the continuous top-k monitoring engine of the
// paper: the query table, the processing cycle (arrivals before
// expirations, Section 4.3), lazy influence-list maintenance, and the two
// monitoring policies — TMA (Top-k Monitoring Algorithm, Figure 9) and SMA
// (Skyband Monitoring Algorithm, Figure 11) — plus the constrained,
// threshold and update-stream extensions of Section 7.
//
// Stream events reach queries through one delivery structure per query
// kind, fixed at Register: top-k queries (TMA or SMA, constrained or not)
// live on the grid's per-cell influence lists, exactly the paper's
// bookkeeping; threshold queries live in the query index
// (internal/qindex), which carries the pub/sub regime of very many
// near-duplicate standing subscriptions that per-cell lists cannot.
//
// The //topk:deterministic directive below puts this package under the
// topklint determinism analyzer: no wall-clock reads, no unseeded
// randomness, no map-iteration-order leaks into outputs, no ad-hoc
// goroutines. The engine's transcripts must be a pure function of the
// input stream; see internal/analysis and doc.go for the rule catalog.
//
//topk:deterministic
package core

import (
	"fmt"

	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// QueryID identifies a registered query.
type QueryID = grid.QueryID

// Policy selects the maintenance algorithm for a top-k query.
type Policy int

// Monitoring policies.
const (
	// TMA recomputes a query's result from scratch whenever one of its
	// current top-k tuples expires (Figure 9).
	TMA Policy = iota
	// SMA maintains the k-skyband of the query's influence region,
	// partially pre-computing future results and recomputing from scratch
	// only when the skyband underflows (Figure 11).
	SMA
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case TMA:
		return "TMA"
	case SMA:
		return "SMA"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a string such as "TMA" or "sma" to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "TMA", "tma":
		return TMA, nil
	case "SMA", "sma":
		return SMA, nil
	default:
		return 0, fmt.Errorf("core: unknown policy %q", s)
	}
}

// StreamMode selects the data stream model.
type StreamMode int

// Stream models.
const (
	// AppendOnly is the sliding-window model: tuples expire in FIFO order
	// as the window slides.
	AppendOnly StreamMode = iota
	// UpdateStream is the explicit-deletion model of Section 7: tuples
	// stay valid until deleted by id, in arbitrary order. Per-cell point
	// lists become hash tables and SMA is unavailable (the expiry order is
	// unknown in advance).
	UpdateStream
)

// String implements fmt.Stringer.
func (m StreamMode) String() string {
	switch m {
	case AppendOnly:
		return "append-only"
	case UpdateStream:
		return "update-stream"
	default:
		return fmt.Sprintf("StreamMode(%d)", int(m))
	}
}

// QuerySpec describes a monitoring query.
type QuerySpec struct {
	// F is the monotone preference function. Required.
	F geom.ScoringFunction
	// K is the result cardinality of a top-k query. Ignored for threshold
	// queries.
	K int
	// Policy selects TMA or SMA maintenance for top-k queries.
	Policy Policy
	// Constraint optionally restricts the query to a rectangular region of
	// the workspace (constrained top-k, Section 7).
	Constraint *geom.Rect
	// Threshold, when non-nil, turns the query into a threshold
	// monitoring query (Section 7): the engine continuously reports all
	// tuples with score strictly above *Threshold. K and Policy are
	// ignored.
	Threshold *float64
}

// Entry is one result tuple with its score under the query's function.
type Entry struct {
	T     *stream.Tuple
	Score float64
}

// Update reports the result delta of one query after a processing cycle.
// Queries whose result did not change produce no Update. Added and Removed
// are each in descending total order and nil when empty.
//
// The updates a cycle returns belong to the caller, who may retain them
// indefinitely: the engine keeps no reference. The Added and Removed
// slices of one cycle share a backing array, each with its capacity
// clipped to its length, so appending to one copies it (it cannot
// overwrite a neighbour) and retaining one retains the cycle's array.
type Update struct {
	Query   QueryID
	Added   []Entry
	Removed []Entry
}

// Monitor is the interface shared by the grid-based engine, the sharded
// engine and the TSL baseline, so the experiment harness can drive them
// uniformly.
type Monitor interface {
	// Register installs a query, computes its initial result and returns
	// its id.
	Register(spec QuerySpec) (QueryID, error)
	// Unregister removes a query and its bookkeeping.
	Unregister(id QueryID) error
	// Step runs one processing cycle at timestamp now: the given arrivals
	// enter the window and expired tuples leave it. It returns the result
	// deltas of the affected queries, ordered by query id.
	Step(now int64, arrivals []*stream.Tuple) ([]Update, error)
	// Result returns the current result of a query in descending total
	// order (threshold queries: descending score order).
	Result(id QueryID) ([]Entry, error)
	// MemoryBytes estimates the monitor's total memory footprint.
	MemoryBytes() int64
}

// StreamMonitor is the full engine surface: the uniform Monitor methods
// plus the update-stream cycle, counter access, and lifecycle management.
// Both the single *Engine and the sharded implementation in internal/shard
// satisfy it, which is what lets pkg/topkmon swap one for the other behind
// a single constructor.
type StreamMonitor interface {
	Monitor
	// StepUpdate runs one processing cycle under the explicit-deletion
	// stream model of Section 7 (UpdateStream mode only).
	StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]Update, error)
	// Stats returns a snapshot of the monitor's counters. Sharded monitors
	// aggregate across shards: stream-level counters (Arrivals,
	// Expirations) are reported once, query-attributed counters are summed.
	Stats() Stats
	// NumPoints returns the number of valid tuples.
	NumPoints() int
	// NumQueries returns the number of registered queries.
	NumQueries() int
	// Now returns the timestamp of the last processed cycle.
	Now() int64
	// Close releases background resources (shard worker goroutines). It is
	// a no-op for the single engine. The monitor must not be used after
	// Close.
	Close() error
}

// Options configures an Engine.
type Options struct {
	// Dims is the dimensionality of the workspace. Required.
	Dims int
	// Window is the sliding-window specification. Ignored (may be zero)
	// in UpdateStream mode.
	Window window.Spec
	// Mode selects the stream model. Default AppendOnly.
	Mode StreamMode
	// GridRes fixes the number of cells per axis. When zero, the
	// resolution is derived from TargetCells.
	GridRes int
	// TargetCells is the approximate total cell count used to derive the
	// per-axis resolution when GridRes is zero. Defaults to 12^4 = 20736,
	// the configuration the paper found best (Figure 14).
	TargetCells int
	// DeletionsFirst inverts the paper's Pins-before-Pdel processing order
	// (Section 4.3, Figure 8): expirations are applied before arrivals, so
	// an arrival can no longer absorb the expiration of a result tuple
	// within the same cycle. Results stay correct but from-scratch
	// recomputations become more frequent. This exists purely as an
	// ablation of the design decision; leave it false in production.
	DeletionsFirst bool
	// ExternalExpiry hands window management to the caller: the engine
	// holds no window of its own and cycles run through StepExternal, which
	// receives the expiring tuples alongside the arrivals. Expirations must
	// still come in FIFO (arrival) order — the caller owns a window over a
	// superset of the engine's tuples and forwards each shard its slice,
	// which is how the data-partitioned sharded monitor coordinates a
	// global sliding window across per-shard engines. AppendOnly mode only;
	// Window is ignored.
	ExternalExpiry bool
}

// DefaultTargetCells is the grid size the paper tunes to (12^4 cells).
const DefaultTargetCells = 20736

func (o *Options) validate() error {
	if o.Dims <= 0 {
		return fmt.Errorf("core: Dims must be positive, got %d", o.Dims)
	}
	if o.ExternalExpiry && o.Mode != AppendOnly {
		return fmt.Errorf("core: ExternalExpiry requires AppendOnly mode")
	}
	if o.Mode == AppendOnly && !o.ExternalExpiry {
		if err := o.Window.Validate(); err != nil {
			return err
		}
	}
	if o.GridRes < 0 {
		return fmt.Errorf("core: GridRes must be non-negative, got %d", o.GridRes)
	}
	if o.TargetCells == 0 {
		o.TargetCells = DefaultTargetCells
	}
	if o.TargetCells < 1 {
		return fmt.Errorf("core: TargetCells must be positive, got %d", o.TargetCells)
	}
	return nil
}

// Stats aggregates engine counters for the experiment harness and tests.
type Stats struct {
	// Arrivals and Expirations count processed stream events.
	Arrivals    int64
	Expirations int64
	// InfluenceEvents counts (event, query) pairs examined because the
	// event fell in a cell of a top-k query's influence list, or because
	// the query-index probe delivered the cell's block to a threshold
	// query.
	InfluenceEvents int64
	// Recomputes counts from-scratch top-k computations triggered by
	// maintenance (excluding initial registrations).
	Recomputes int64
	// InitialComputations counts top-k computations run at registration.
	InitialComputations int64
	// CellsProcessed counts de-heaped cells across all top-k computations
	// — Section 6's C summed. Threshold queries add nothing: registering
	// one runs no search, and the search behind a threshold Result is a
	// read, not maintenance.
	CellsProcessed int64
	// HeapOps counts cell-heap pushes and pops across all top-k
	// computations — with CellsProcessed, the per-computation work measure
	// behind per-query cost attribution (shard rebalancing).
	HeapOps int64
	// CellsWalked counts cells visited by influence-list pruning walks
	// (after top-k recomputations and at top-k query termination).
	// Threshold queries never walk.
	CellsWalked int64
	// SkybandSizeSum / SkybandSamples track the per-cycle skyband sizes of
	// SMA queries (Table 2).
	SkybandSizeSum int64
	SkybandSamples int64
	// ResultUpdates counts emitted Update records.
	ResultUpdates int64
	// DroppedBatches counts ingest batches shed by a pipelined monitor
	// under the drop-oldest backpressure policy (internal/pipeline). The
	// synchronous engines never drop and always report zero.
	DroppedBatches int64
	// DroppedTuples counts the stream events — arrivals plus explicit
	// deletions — carried by those shed batches, so loss accounting stays
	// exact when batch sizes vary. Zero for the synchronous engines.
	DroppedTuples int64
	// QueueHighWater is the largest number of batches a pipelined monitor
	// ever held queued at once (internal/pipeline adaptive depth). The
	// synchronous engines always report zero.
	QueueHighWater int64
	// Migrations counts rebalancing moves executed by a sharded monitor
	// (internal/shard): live query migrations under query partitioning,
	// routing-bucket reassignments under data partitioning. Zero
	// elsewhere.
	Migrations int64
	// MemoryHighWater is the largest MemoryBytes figure observed so far.
	// It is pull-model: refreshed whenever MemoryBytes is called (every
	// ShardLoads pass does), never by the cycle path itself, so sampling
	// cost stays with the reader. Memory-aware placement reads it.
	MemoryHighWater int64
	// MaxCellBytesHighWater is the largest single grid cell's allocated
	// (capacity) byte footprint ever reached — the tuple-hash-skew
	// signal for memory-aware placement. Maintained by the grid at cell
	// growth time, so it is exact, not sampled.
	MaxCellBytesHighWater int64
}

// AvgSkybandSize returns the average skyband cardinality per SMA query per
// cycle (Table 2), or 0 when no samples were taken.
func (s Stats) AvgSkybandSize() float64 {
	if s.SkybandSamples == 0 {
		return 0
	}
	return float64(s.SkybandSizeSum) / float64(s.SkybandSamples)
}
