package topkmon

import (
	"io"

	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/pipeline"
	"topkmon/internal/recovery"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
)

// The monitoring vocabulary is defined in the internal packages and
// re-exported here as aliases, so external users interact with one import
// path while the algorithm packages stay internal.
type (
	// Tuple is one stream record: id, attribute vector, arrival sequence
	// number and timestamp.
	Tuple = stream.Tuple
	// Vector is a point in the d-dimensional workspace.
	Vector = geom.Vector
	// Rect is an axis-parallel rectangle, used for constrained queries.
	Rect = geom.Rect
	// ScoringFunction is a preference function monotone on every dimension.
	ScoringFunction = geom.ScoringFunction
	// QueryID identifies a registered query.
	QueryID = core.QueryID
	// QuerySpec describes a monitoring query: scoring function, k, policy,
	// optional constraint region or threshold.
	QuerySpec = core.QuerySpec
	// Entry is one result tuple with its score.
	Entry = core.Entry
	// Update is the result delta of one query after a processing cycle.
	Update = core.Update
	// Policy selects the maintenance algorithm (TMA or SMA).
	Policy = core.Policy
	// StreamMode selects the stream model (AppendOnly or UpdateStream).
	StreamMode = core.StreamMode
	// Stats aggregates monitor counters.
	Stats = core.Stats
	// Distribution identifies a synthetic workload distribution.
	Distribution = stream.Distribution
	// Generator produces synthetic tuple batches (demos, tests, benchmarks).
	Generator = stream.Generator
	// CSVReader decodes "ts,x1,...,xd" tuple traces into per-cycle batches.
	CSVReader = stream.CSVReader
	// ShardLoad describes one shard's load: query count, EWMA
	// per-cycle wall time, cumulative attributed query cost, memory.
	ShardLoad = shard.ShardLoad
	// AdmissionConfig configures the load-shedding governor enabled by
	// WithAdmission: the dropper's seed, the per-cycle latency target and
	// the memory limit. The zero value is valid: no latency trigger and no
	// memory limit.
	AdmissionConfig = admission.Config
	// AdmissionState is the governor's degradation level: AdmissionNormal,
	// AdmissionShedding or AdmissionCritical.
	AdmissionState = admission.State
	// AdmissionSnapshot is a consistent read of the governor's state, rate
	// and shed/staleness counters (see Monitor.AdmissionStats).
	AdmissionSnapshot = admission.Snapshot
)

// Sentinel errors, re-exported so callers can errors.Is-classify failures
// without importing internal packages. Errors returned by Monitor methods
// wrap these.
var (
	// ErrClosed is reported by operations on a pipelined monitor after
	// Close: an orderly-shutdown signal, not a fault.
	ErrClosed = pipeline.ErrClosed
	// ErrStopped is reported by operations on a sharded monitor after
	// Close.
	ErrStopped = shard.ErrStopped
	// ErrNoCheckpoint is reported by Restore when the directory holds no
	// durability lineage.
	ErrNoCheckpoint = recovery.ErrNoCheckpoint
	// ErrCorrupt is reported by Restore when a checkpoint or WAL fails
	// validation (bad checksum, truncation, inconsistent replay).
	ErrCorrupt = recovery.ErrCorrupt
	// ErrVersion is reported by Restore when the on-disk format was
	// written by an incompatible build.
	ErrVersion = recovery.ErrVersion
	// ErrOverloaded is reported (wrapped) by Ingest/IngestUpdate when the
	// admission governor sheds the batch: the system is protecting itself,
	// not failing. Producers should back off and retry; the batch was
	// counted and drop-logged.
	ErrOverloaded = admission.ErrOverloaded
)

// Monitoring policies.
const (
	// TMA recomputes a query's result from scratch whenever one of its
	// current top-k tuples expires (Figure 9 of the paper). Under update
	// streams it keeps a view of up to kmax tuples (the paper's Section 8
	// tuning, 30 for k = 20) and recomputes only once deletions leave
	// fewer than k; results are the same.
	TMA = core.TMA
	// SMA maintains the k-skyband of the query's influence region,
	// pre-computing future results (Figure 11). The paper's recommendation.
	SMA = core.SMA
)

// Stream models.
const (
	// AppendOnly is the sliding-window model: tuples expire in FIFO order.
	AppendOnly = core.AppendOnly
	// UpdateStream is the explicit-deletion model of Section 7: tuples stay
	// valid until deleted by id. SMA is unavailable in this mode.
	UpdateStream = core.UpdateStream
)

// Admission-control degradation levels (see WithAdmission and the
// package doc's overload section).
const (
	// AdmissionNormal admits every batch: the engine keeps up.
	AdmissionNormal = admission.Normal
	// AdmissionShedding bounds the admitted rate to the measured drain
	// rate and thins bursts probabilistically; shed batches surface in
	// Stats.DroppedBatches and as ErrOverloaded under Block.
	AdmissionShedding = admission.Shedding
	// AdmissionCritical admits nothing but deletions until memory falls
	// back below the configured limit's low fraction: arrivals are
	// stripped while cycles (and window expiry) keep running, so state
	// shrinks instead of growing.
	AdmissionCritical = admission.Critical
)

// Synthetic workload distributions.
const (
	// IND draws attributes independently and uniformly.
	IND = stream.IND
	// ANT draws anti-correlated attributes.
	ANT = stream.ANT
)

// Linear returns the linear preference function f(x) = sum w_i * x_i.
// Negative weights express decreasingly monotone preferences.
func Linear(weights ...float64) ScoringFunction { return geom.NewLinear(weights...) }

// Product returns the multiplicative preference function
// f(x) = prod (x_i + offset_i).
func Product(offsets ...float64) ScoringFunction { return geom.NewProduct(offsets...) }

// Quadratic returns the quadratic preference function f(x) = sum w_i * x_i^2.
func Quadratic(weights ...float64) ScoringFunction { return geom.NewQuadratic(weights...) }

// NewRect builds a constraint rectangle from corner vectors.
func NewRect(lo, hi Vector) (Rect, error) { return geom.NewRect(lo, hi) }

// ParsePolicy converts "TMA"/"SMA" (any case) to a Policy.
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// NewGenerator returns a synthetic tuple generator with globally increasing
// ids and sequence numbers, ready to feed Step.
func NewGenerator(dist Distribution, dims int, seed int64) *Generator {
	return stream.NewGenerator(dist, dims, seed)
}

// NewCSVReader reads a recorded tuple trace — one "ts,x1,...,xd" line per
// tuple, timestamps non-decreasing — and groups it into Step batches.
func NewCSVReader(r io.Reader, dims int) (*CSVReader, error) {
	return stream.NewCSVReader(r, dims)
}
