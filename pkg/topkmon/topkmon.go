// Package topkmon is the public interface to the continuous top-k
// monitoring system: a facade over the paper-faithful single engine
// (internal/core) and the sharded concurrent engine (internal/shard),
// selected by functional options. The options fill one stack.Config, and
// internal/stack is the one place that assembles the layers — engine or
// shards, WAL guard, pipeline, admission governor — for New and Restore.
//
// Quickstart:
//
//	mon, err := topkmon.New(2,
//		topkmon.WithCountWindow(10000),
//		topkmon.WithShards(4),
//	)
//	defer mon.Close()
//	q, err := mon.RegisterTopK(topkmon.Linear(1, 2), 5)
//	updates, err := mon.Step(ts, batch) // or mon.Tick(batch)
//
// Sharding never changes results: the sharded monitor produces exactly the
// updates of the single engine on the same stream. Each shard indexes a
// disjoint hash slice of the stream and runs every query; the router
// k-way merges the per-shard partial top-k lists, so total index memory
// stays O(N) whatever the shard count.
//
// WithPipeline(depth) additionally decouples ingestion from processing:
// Ingest enqueues batches without waiting, cycle results arrive in order
// on the Updates channel, and Flush/Close are delivery barriers — same
// results again, just asynchronous delivery. See the root package doc for
// the ordering and backpressure guarantees.
//
// # Durability guarantees
//
// WithCheckpoint(dir, every) makes the monitor recoverable. The contract:
//
//   - Every batch is appended to a write-ahead log in dir before it is
//     applied, and every `every` cycles (plus at Close) the full engine
//     state — grid, window tail, queries, per-query book-keeping, and the
//     facade's sharding/pipelining configuration — is snapshotted into
//     versioned, checksummed checkpoint files, committed by an atomic
//     manifest rename.
//   - Restore(dir) rebuilds a monitor from the latest checkpoint and
//     replays the WAL suffix recorded after it. The restored monitor is
//     byte-identical to the original: from the restore point on it emits
//     exactly the result transcript the uninterrupted run would have
//     (enforced by the crash-recovery differential test in
//     internal/difftest, which kills and restores mid-run across seeds
//     and engine modes).
//   - A crash can lose at most the tail of the WAL that had not reached
//     disk. With WithCheckpointSync every append is fsynced before the
//     batch is applied, shrinking the exposure to the single in-flight
//     batch at the cost of one fsync per cycle. Without it, the OS page
//     cache bounds the loss window.
//   - Torn final WAL frames (a crash mid-append) are detected by CRC and
//     dropped silently; corruption anywhere else surfaces as ErrCorrupt
//     from Restore, never as silently wrong state. Version skew surfaces
//     as ErrVersion; an empty or missing directory as ErrNoCheckpoint.
//   - Batches shed (and arrivals stripped) by the WithAdmission governor
//     are recorded in the WAL as advisory drop records and counted in
//     Stats.DroppedTuples, so loss under overload is observable and
//     auditable, but they are (by design) not replayed: the recovered
//     engine matches the live engine, which never saw them either.
//   - Engine state and log never diverge silently. A query removal that
//     applies but fails to append its WAL record is re-synced by an
//     immediate checkpoint; if that fails too, the lineage is declared
//     broken and every further mutation reports the error rather than
//     growing state a restore would not reproduce.
//
// A checkpoint directory holds one lineage: New refuses a dir with an
// existing manifest (use Restore to resume it), so two monitors cannot
// interleave WALs.
//
// # SIMD dispatch
//
// All scoring runs through internal/simd, which selects one of two
// kernel legs at startup: hand-written assembly where the host has it
// (AVX2 on amd64 CPUs that support it, NEON on every arm64), and the
// plain scalar loop everywhere else. The choice is process-global and
// fixed for the monitor's lifetime.
//
// Both legs obey the same contract: bit-identical float64 results. The
// assembly keeps the scalar loop's accumulation order, rounds every
// intermediate product to float64 and never fuses a multiply-add, so a
// monitor produces the same result transcript — and the same
// checkpoints — on an AVX2 server, a NEON laptop, and a host with
// neither. That is what lets the differential and crash-recovery
// harnesses compare transcripts across machines.
//
// The TOPK_SIMD environment variable (scalar, avx2, neon) forces a
// specific leg for testing and triage, panicking at startup if the host
// cannot run it — a forced leg that silently fell back would defeat the
// point. CI runs the kernel suites under both legs on both
// architectures.
package topkmon

import (
	"encoding/json"
	"fmt"
	"sync"

	"topkmon/internal/pipeline"
	"topkmon/internal/stack"
)

// Monitor is the public handle to a monitoring engine (single or sharded,
// synchronous or pipelined). A sharded or pipelined Monitor is safe for
// concurrent use; a synchronous single-engine Monitor (the default) must
// be driven from one goroutine, like the paper's server. Close releases
// shard workers and drains the pipeline; it is a no-op for synchronous
// single engines.
type Monitor struct {
	st     *stack.Stack
	pipe   *pipeline.Pipeline // st.Pipe, which the ingestion methods branch on
	policy Policy

	// tickMu guards the clock-driven ingestion state.
	tickMu sync.Mutex
	clock  Clock
	nextTS int64
	seq    uint64
}

// New builds a monitor over a dims-dimensional workspace. AppendOnly mode
// (the default) requires a window option; see the Option constructors for
// everything else.
func New(dims int, opts ...Option) (*Monitor, error) {
	cfg := config{policy: SMA}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.stack.Engine.Dims = dims
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.stack.Dir != "" {
		aux, err := json.Marshal(facadeAux{Policy: int(cfg.policy), Config: cfg.stack})
		if err != nil {
			return nil, err
		}
		cfg.stack.Aux = aux
	}
	st, err := stack.Build(cfg.stack, nil)
	if err != nil {
		return nil, err
	}
	return &Monitor{st: st, pipe: st.Pipe, policy: cfg.policy, clock: cfg.clock}, nil
}

// Pipelined reports whether the monitor ingests asynchronously
// (WithPipeline).
func (m *Monitor) Pipelined() bool { return m.pipe != nil }

// Ingest enqueues one append-only cycle on a pipelined monitor without
// waiting for it to be processed; the cycle's updates arrive on the
// Updates channel. Arrivals must be stamped like Step's. A full queue
// makes Ingest wait. Under WithAdmission the governor may instead shed the
// batch — Ingest then returns an error wrapping ErrOverloaded and the
// batch is counted in Stats.DroppedBatches — or, in the Critical state,
// strip its arrivals while the cycle still runs.
func (m *Monitor) Ingest(now int64, arrivals []*Tuple) error {
	if m.pipe == nil {
		return fmt.Errorf("topkmon: Ingest requires WithPipeline; use Step")
	}
	return m.pipe.Ingest(now, arrivals)
}

// IngestUpdate is Ingest for the explicit-deletion stream model.
func (m *Monitor) IngestUpdate(now int64, arrivals []*Tuple, deletions []uint64) error {
	if m.pipe == nil {
		return fmt.Errorf("topkmon: IngestUpdate requires WithPipeline; use StepUpdate")
	}
	return m.pipe.IngestUpdate(now, arrivals, deletions)
}

// Updates returns the pipelined monitor's ordered delivery channel: one
// non-empty []Update per cycle that changed any result, exactly the
// batches synchronous Step calls would have returned, closed after Close.
// It returns nil on a synchronous monitor. The channel must be drained;
// an ignored channel eventually backpressures ingestion.
func (m *Monitor) Updates() <-chan []Update {
	if m.pipe == nil {
		return nil
	}
	return m.pipe.Updates()
}

// Flush blocks until every batch ingested before the call has been
// applied and its updates handed to the Updates channel, and returns the
// first cycle error if one occurred. It errors on a synchronous monitor.
func (m *Monitor) Flush() error {
	if m.pipe == nil {
		return fmt.Errorf("topkmon: Flush requires WithPipeline")
	}
	return m.pipe.Flush()
}

// AdmissionControlled reports whether the monitor runs with the
// load-shedding governor (WithAdmission).
func (m *Monitor) AdmissionControlled() bool { return m.st.Gov != nil }

// AdmissionState returns the governor's current degradation level:
// AdmissionNormal (everything admitted — also the answer when admission
// control is disabled), AdmissionShedding (rate-bounded probabilistic
// admission) or AdmissionCritical (deletions only, memory over the
// limit). The read is lock-free and safe to poll from a stats loop.
func (m *Monitor) AdmissionState() AdmissionState {
	if m.st.Gov == nil {
		return AdmissionNormal
	}
	return m.st.Gov.State()
}

// AdmissionStats returns a snapshot of the governor's state, admitted
// rate and shed/staleness counters; the zero Snapshot when admission
// control is disabled. SheddingDrains and CriticalDrains count the cycles
// processed while degraded — the bounded-staleness figure.
func (m *Monitor) AdmissionStats() AdmissionSnapshot {
	if m.st.Gov == nil {
		return AdmissionSnapshot{}
	}
	return m.st.Gov.Snapshot()
}

// Checkpointed reports whether the monitor runs with durability
// (WithCheckpoint, or built by Restore).
func (m *Monitor) Checkpointed() bool { return m.st.Guard != nil }

// Checkpoint writes a full checkpoint immediately and rotates the
// write-ahead log — the manual form of the WithCheckpoint cadence, for
// callers that want a durable cut at a known stream position. It requires
// WithCheckpoint and a synchronous monitor; a pipelined monitor owns its
// cycle barrier, so it checkpoints only on the configured cadence and at
// Close.
func (m *Monitor) Checkpoint() error {
	if m.st.Guard == nil {
		return fmt.Errorf("topkmon: Checkpoint requires WithCheckpoint")
	}
	if m.pipe != nil {
		return fmt.Errorf("topkmon: manual Checkpoint is unavailable under WithPipeline; checkpoints run every N cycles and at Close")
	}
	return m.st.Guard.Checkpoint()
}

// QueryIDs returns the ids of every registered query in ascending order on
// a checkpointed monitor — how a caller re-discovers its queries after
// Restore. It requires a quiescent monitor (no concurrent ingestion) and
// returns nil without WithCheckpoint.
func (m *Monitor) QueryIDs() []QueryID {
	if m.st.Guard == nil {
		return nil
	}
	return m.st.Guard.QueryIDs()
}

// Shards returns the number of engine shards (1 for the single engine).
func (m *Monitor) Shards() int { return m.st.Shards }

// ShardLoads returns each shard's current load — query count, EWMA
// per-cycle wall time, cumulative attributed query cost, memory footprint
// — through the pipeline barrier when pipelined.
// It returns nil on a single-engine monitor.
func (m *Monitor) ShardLoads() []ShardLoad {
	if sh, ok := m.st.Mon.(interface{ ShardLoads() []ShardLoad }); ok {
		return sh.ShardLoads()
	}
	return nil
}

// Register installs a query described by a full spec and returns its id.
func (m *Monitor) Register(spec QuerySpec) (QueryID, error) {
	return m.st.Mon.Register(spec)
}

// RegisterTopK installs a top-k query under the monitor's default policy
// (see WithPolicy).
func (m *Monitor) RegisterTopK(f ScoringFunction, k int) (QueryID, error) {
	return m.st.Mon.Register(QuerySpec{F: f, K: k, Policy: m.policy})
}

// RegisterThreshold installs a threshold query reporting every tuple whose
// score strictly exceeds threshold.
func (m *Monitor) RegisterThreshold(f ScoringFunction, threshold float64) (QueryID, error) {
	return m.st.Mon.Register(QuerySpec{F: f, Threshold: &threshold})
}

// Unregister removes a query and its bookkeeping.
func (m *Monitor) Unregister(id QueryID) error { return m.st.Mon.Unregister(id) }

// Step runs one processing cycle at timestamp now (append-only mode):
// arrivals enter the window, expired tuples leave it, and the result
// deltas of the affected queries are returned ordered by query id.
// Arrivals must be stamped with TS = now and strictly increasing Seq; use
// Tick for automatic stamping.
func (m *Monitor) Step(now int64, arrivals []*Tuple) ([]Update, error) {
	return m.st.Mon.Step(now, arrivals)
}

// StepUpdate runs one cycle under the explicit-deletion model
// (UpdateStream mode): arrivals are inserted and the tuples named by
// deletions are removed.
func (m *Monitor) StepUpdate(now int64, arrivals []*Tuple, deletions []uint64) ([]Update, error) {
	return m.st.Mon.StepUpdate(now, arrivals, deletions)
}

// Tick runs one clock-driven cycle: the configured Clock (default: a
// logical clock advancing one unit per tick) supplies the timestamp, and
// the arrivals' TS and Seq fields are stamped in place. This is the
// convenient ingestion path when the caller does not manage stream
// bookkeeping itself. Ticks are serialized: stamping and the cycle run
// under one lock, so concurrent Tick calls are safe (on a sharded
// monitor) and never interleave timestamps out of order.
func (m *Monitor) Tick(arrivals []*Tuple) ([]Update, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	return m.st.Mon.Step(m.stampLocked(arrivals), arrivals)
}

// TickUpdate is Tick for UpdateStream mode.
func (m *Monitor) TickUpdate(arrivals []*Tuple, deletions []uint64) ([]Update, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	return m.st.Mon.StepUpdate(m.stampLocked(arrivals), arrivals, deletions)
}

// stampLocked assigns the cycle timestamp and sequence numbers for a tick.
// Callers hold tickMu.
func (m *Monitor) stampLocked(arrivals []*Tuple) int64 {
	var now int64
	if m.clock != nil {
		now = m.clock.Now()
	} else {
		now = m.nextTS
	}
	if now >= m.nextTS {
		m.nextTS = now + 1
	}
	for _, t := range arrivals {
		t.TS = now
		m.seq++
		t.Seq = m.seq
	}
	return now
}

// LastSeq returns the highest arrival sequence number stamped by Tick or
// recovered by Restore. A resuming trace replay continues its own
// stamping from here (see CSVReader.SetNextID); callers that stamp
// Step batches themselves are not tracked.
func (m *Monitor) LastSeq() uint64 {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	return m.seq
}

// Result returns the current result of a query, best first.
func (m *Monitor) Result(id QueryID) ([]Entry, error) { return m.st.Mon.Result(id) }

// Stats returns a snapshot of the monitor counters. For sharded monitors
// every counter is summed across shards, except ResultUpdates, which
// counts the merged updates the monitor reported.
func (m *Monitor) Stats() Stats { return m.st.Mon.Stats() }

// MemoryBytes estimates the monitor's total memory footprint: on a sharded
// monitor the shards' disjoint index slices plus the router's window and
// merge state.
func (m *Monitor) MemoryBytes() int64 { return m.st.Mon.MemoryBytes() }

// NumPoints returns the number of valid tuples.
func (m *Monitor) NumPoints() int { return m.st.Mon.NumPoints() }

// NumQueries returns the number of registered queries.
func (m *Monitor) NumQueries() int { return m.st.Mon.NumQueries() }

// Now returns the timestamp of the last processed cycle.
func (m *Monitor) Now() int64 { return m.st.Mon.Now() }

// Close stops the shard worker goroutines, drains the pipeline, and — on
// a checkpointed monitor — writes the final checkpoint. The monitor must
// not be used afterwards. Closing a single-engine monitor is a no-op;
// closing twice is safe.
func (m *Monitor) Close() error { return m.st.Mon.Close() }

// abandon releases a synchronous checkpointed monitor's resources without
// the final checkpoint, leaving the directory exactly as a process kill
// would — the crash-simulation hook restore tests drive.
func (m *Monitor) abandon() error {
	if m.st.Guard == nil || m.pipe != nil {
		return fmt.Errorf("topkmon: abandon requires a synchronous checkpointed monitor")
	}
	return m.st.Guard.Abandon()
}
