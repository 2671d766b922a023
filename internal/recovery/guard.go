package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"topkmon/internal/core"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
)

// Guard wraps a monitor with durability: every batch is WAL-logged before
// it is applied, query registrations and removals are logged after they
// succeed, and every N successful cycles (plus Close) the full monitor
// state is checkpointed and the WAL rotated.
//
// Like the single engine, a Guard must be driven from one goroutine —
// the facade and the ingestion pipeline already serialize all operations
// onto one — with a single exception: LogDrop may be called concurrently
// from the pipeline's producer goroutine (the WAL carries its own lock).
type Guard struct {
	inner core.StreamMonitor
	dir   string
	every int
	aux   func() []byte

	wal    *WAL
	epoch  uint64
	cycles int
	closed bool
	// broken is set when engine state and log diverged and could not be
	// reconciled (an unregister that applied but failed to append, with
	// the re-sync checkpoint failing too). It is sticky: every further
	// mutating operation reports it instead of growing a lineage a
	// restore would not reproduce.
	broken error

	// dropMu covers the one cross-goroutine edge a Guard has: LogDrop on
	// the pipeline's producer goroutine racing a checkpoint's watermark
	// capture + rotation on the driver goroutine. It guards the parking
	// state below and is held across LogDrop's append, taking the WAL
	// lock inside it — never the reverse.
	dropMu        sync.Mutex //topk:lockrank 45
	checkpointing bool
	pendingDrops  []Record
}

var _ core.StreamMonitor = (*Guard)(nil)

// GuardOptions tunes a Guard.
type GuardOptions struct {
	// Every is the checkpoint cadence in successful cycles. Zero means
	// checkpoint only at Close (the WAL alone carries crash safety).
	Every int
	// Sync is the WAL fsync policy. Checkpoints always fsync.
	Sync SyncPolicy
	// Aux, when set, is called at every checkpoint and its bytes stored
	// opaquely in the manifest — the facade's own restart state. Restore
	// hands the bytes back.
	Aux func() []byte
}

// NewGuard starts a fresh durability lineage for inner in dir: the
// directory must not already hold a checkpoint (restore it with Restore,
// or point the guard elsewhere — silently overwriting a previous lineage
// would destroy its crash safety). An initial checkpoint is written
// before NewGuard returns, so the lineage is restorable from its first
// moment.
func NewGuard(inner core.StreamMonitor, dir string, opts GuardOptions) (*Guard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: create checkpoint dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("recovery: %s already holds a checkpoint; use Restore or an empty directory", dir)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("recovery: stat manifest: %w", err)
	}
	wal, recs, err := OpenWAL(filepath.Join(dir, walName), opts.Sync)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		wal.Close()
		return nil, fmt.Errorf("%w: %s has WAL records but no checkpoint", ErrCorrupt, dir)
	}
	g := &Guard{inner: inner, dir: dir, every: opts.Every, aux: opts.Aux, wal: wal}
	if err := g.Checkpoint(); err != nil {
		wal.Close()
		return nil, err
	}
	return g, nil
}

// Dir returns the checkpoint directory.
func (g *Guard) Dir() string { return g.dir }

// Step logs the batch, applies it, and checkpoints at the configured
// cadence. A checkpoint failure fails the cycle: the batch is applied,
// but the caller learns durability is broken instead of running on
// silently.
func (g *Guard) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	if g.broken != nil {
		return nil, g.broken
	}
	if err := g.wal.Append(Record{Kind: RecordBatch, Now: now, Arrivals: arrivals}); err != nil {
		return nil, err
	}
	updates, err := g.inner.Step(now, arrivals)
	if err != nil {
		return updates, err
	}
	return updates, g.noteCycle()
}

// StepUpdate is Step for the explicit-deletion stream model.
func (g *Guard) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
	if g.broken != nil {
		return nil, g.broken
	}
	if err := g.wal.Append(Record{Kind: RecordBatch, Now: now, IsUpdate: true, Arrivals: arrivals, Deletions: deletions}); err != nil {
		return nil, err
	}
	updates, err := g.inner.StepUpdate(now, arrivals, deletions)
	if err != nil {
		return updates, err
	}
	return updates, g.noteCycle()
}

func (g *Guard) noteCycle() error {
	g.cycles++
	if g.every > 0 && g.cycles >= g.every {
		g.cycles = 0
		return g.Checkpoint()
	}
	return nil
}

// Register validates that the spec is persistable, installs the query,
// and logs the registration with its assigned id — so queries registered
// after the last checkpoint survive a crash via WAL replay. A spec whose
// scoring function cannot be serialized is rejected up front with
// ErrUnsupportedFunction: the engine must never hold a query the
// checkpoint cannot persist.
func (g *Guard) Register(spec core.QuerySpec) (core.QueryID, error) {
	if g.broken != nil {
		return 0, g.broken
	}
	if _, err := EncodeWALRecord(Record{Kind: RecordRegister, Spec: spec}); err != nil {
		return 0, err
	}
	id, err := g.inner.Register(spec)
	if err != nil {
		return 0, err
	}
	if err := g.wal.Append(Record{Kind: RecordRegister, Query: id, Spec: spec}); err != nil {
		// Roll the registration back so engine state and log agree.
		g.inner.Unregister(id)
		return 0, err
	}
	return id, nil
}

// Unregister removes the query and logs the removal. When the removal
// applies but the append fails, engine and log diverge — a restore would
// resurrect the query — so the guard re-syncs by checkpointing the
// post-removal state; if that fails too, the lineage is declared broken
// and every further mutating operation refuses to extend it.
func (g *Guard) Unregister(id core.QueryID) error {
	if g.broken != nil {
		return g.broken
	}
	if err := g.inner.Unregister(id); err != nil {
		return err
	}
	err := g.wal.Append(Record{Kind: RecordUnregister, Query: id})
	if err == nil {
		return nil
	}
	if ckErr := g.Checkpoint(); ckErr != nil {
		g.broken = fmt.Errorf("recovery: unregister of query %d applied but not logged (%v); re-sync checkpoint failed: %w", id, err, ckErr)
		return g.broken
	}
	return nil
}

// LogDrop implements pipeline.DropLogger: batches the admission governor
// shed, and arrivals it stripped, get advisory WAL records, so tuple loss
// is accounted durably rather than vanishing. It runs on the pipeline's
// producer goroutine; append errors are swallowed — a drop record is
// bookkeeping about data that is already gone.
func (g *Guard) LogDrop(now int64, isUpdate bool, arrivals []*stream.Tuple, deletions []uint64) {
	rec := Record{Kind: RecordDrop, Now: now, IsUpdate: isUpdate, Arrivals: arrivals, Deletions: deletions}
	g.dropMu.Lock()
	defer g.dropMu.Unlock()
	if g.checkpointing {
		// A drop appended now would land between the checkpoint's
		// watermark capture and its rotation and be erased; park it for
		// the checkpoint to re-append into the fresh log body.
		g.pendingDrops = append(g.pendingDrops, rec)
		return
	}
	_ = g.wal.Append(rec)
}

// Checkpoint writes a full checkpoint now and rotates the WAL. It must be
// called between cycles (the guard's single-driver contract makes every
// call site a cycle barrier).
func (g *Guard) Checkpoint() error {
	if g.broken != nil {
		return g.broken
	}
	// Park concurrent drop records for the duration: anything appended
	// between the watermark capture below and the rotation would carry an
	// index at or above the new watermark yet be erased by the rotation.
	g.dropMu.Lock()
	g.checkpointing = true
	g.dropMu.Unlock()
	defer g.flushDrops()
	var aux []byte
	if g.aux != nil {
		aux = g.aux()
	}
	m, states, err := collect(g.inner, g.epoch+1, g.wal.NextIndex(), aux)
	if err != nil {
		return err
	}
	if err := writeCheckpoint(g.dir, m, states); err != nil {
		return err
	}
	g.epoch = m.epoch
	return g.wal.Rotate()
}

// flushDrops reopens the log to concurrent drop appends and writes the
// records parked during the checkpoint — after the rotation, so they land
// in the fresh body with indexes at or above the new watermark. Append
// errors are swallowed for the same reason LogDrop swallows them.
func (g *Guard) flushDrops() {
	g.dropMu.Lock()
	parked := g.pendingDrops
	g.pendingDrops = nil
	g.checkpointing = false
	g.dropMu.Unlock()
	for _, rec := range parked {
		_ = g.wal.Append(rec)
	}
}

// CurrentClock returns the wrapped monitor's cycle clock — what the
// facade consults after a restore to resume stamping where the stream
// left off.
func (g *Guard) CurrentClock() core.Clock {
	switch m := g.inner.(type) {
	case *core.Engine:
		return m.ExportClock()
	case *shard.DataSharded:
		return m.ExportClock()
	}
	return core.Clock{}
}

// QueryIDs returns the ids of all registered queries in ascending order —
// how a caller re-discovers its queries after a Restore. Like Checkpoint,
// it must be called between cycles.
func (g *Guard) QueryIDs() []core.QueryID {
	switch m := g.inner.(type) {
	case *core.Engine:
		return m.QueryIDs()
	case *shard.DataSharded:
		qs := m.ExportRouterQueries()
		ids := make([]core.QueryID, len(qs))
		for i, q := range qs {
			ids[i] = q.ID
		}
		return ids
	}
	return nil
}

// Abandon releases the guard's resources without the final checkpoint —
// the crash-simulation hook: the directory is left exactly as a process
// kill would leave it, recoverable only through the latest checkpoint
// plus the WAL suffix. Tests use it; production code wants Close.
func (g *Guard) Abandon() error {
	if g.closed {
		return nil
	}
	g.closed = true
	walErr := g.wal.Close()
	innerErr := g.inner.Close()
	if walErr != nil {
		return walErr
	}
	return innerErr
}

// Close writes a final checkpoint, closes the WAL, and closes the wrapped
// monitor. The first error wins, but all three steps always run.
func (g *Guard) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	ckErr := g.Checkpoint()
	walErr := g.wal.Close()
	innerErr := g.inner.Close()
	if ckErr != nil {
		return ckErr
	}
	if walErr != nil {
		return walErr
	}
	return innerErr
}

// --- plain forwarding ---

// Result implements core.Monitor.
func (g *Guard) Result(id core.QueryID) ([]core.Entry, error) { return g.inner.Result(id) }

// Stats implements core.StreamMonitor.
func (g *Guard) Stats() core.Stats { return g.inner.Stats() }

// MemoryBytes implements core.Monitor.
func (g *Guard) MemoryBytes() int64 { return g.inner.MemoryBytes() }

// NumPoints implements core.StreamMonitor.
func (g *Guard) NumPoints() int { return g.inner.NumPoints() }

// NumQueries implements core.StreamMonitor.
func (g *Guard) NumQueries() int { return g.inner.NumQueries() }

// Now implements core.StreamMonitor.
func (g *Guard) Now() int64 { return g.inner.Now() }

// CheckInfluence forwards the influence-list invariant check.
func (g *Guard) CheckInfluence() error {
	if c, ok := g.inner.(interface{ CheckInfluence() error }); ok {
		return c.CheckInfluence()
	}
	return nil
}

// ShardLoads forwards per-shard load figures (nil when unsharded).
func (g *Guard) ShardLoads() []shard.ShardLoad {
	if sh, ok := g.inner.(interface{ ShardLoads() []shard.ShardLoad }); ok {
		return sh.ShardLoads()
	}
	return nil
}

// --- restore ---

// RestoreOptions tunes the Guard Restore returns.
type RestoreOptions = GuardOptions

// Restore rebuilds the monitor whose lineage lives in dir: load the
// latest checkpoint, reconstruct the monitor byte-identically, replay the
// WAL suffix past the manifest's watermark, and return a Guard appending
// to the same lineage, plus the aux bytes the manifest carried.
func Restore(dir string, opts RestoreOptions) (*Guard, []byte, error) {
	m, states, err := readCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	mon, err := buildMonitor(m, states)
	if err != nil {
		return nil, nil, err
	}
	wal, recs, err := OpenWAL(filepath.Join(dir, walName), opts.Sync)
	if err != nil {
		mon.Close()
		return nil, nil, err
	}
	// The reopened log resumes its counter after the last surviving
	// record, which after a rotation (an empty body, e.g. following a
	// clean Close) or a crash between the manifest rename and the
	// rotation (all-stale records) sits below the manifest watermark.
	// Floor it, or every post-restore record would be skipped as
	// already-checkpointed by the next restore.
	wal.EnsureNextIndex(m.walNext)
	fail := func(err error) (*Guard, []byte, error) {
		wal.Close()
		mon.Close()
		return nil, nil, err
	}
	for _, rec := range recs {
		if rec.Index < m.walNext {
			// Already folded into the checkpoint: the crash hit between the
			// manifest rename and the WAL rotation.
			continue
		}
		switch rec.Kind {
		case RecordBatch:
			// Apply errors are deliberately not inspected: batch admission
			// is deterministic, so a batch the original monitor rejected is
			// rejected identically here and leaves the same state in both
			// timelines. For an update batch that state is none: every
			// monitor validates a whole update cycle before applying any
			// of it, a data-sharded one on every shard first.
			if rec.IsUpdate {
				mon.StepUpdate(rec.Now, rec.Arrivals, rec.Deletions)
			} else {
				mon.Step(rec.Now, rec.Arrivals)
			}
		case RecordRegister:
			id, err := mon.Register(rec.Spec)
			if err != nil {
				return fail(fmt.Errorf("%w: replayed registration of query %d failed: %v", ErrCorrupt, rec.Query, err))
			}
			if id != rec.Query {
				return fail(fmt.Errorf("%w: replayed registration got id %d, log says %d", ErrCorrupt, id, rec.Query))
			}
		case RecordUnregister:
			if err := mon.Unregister(rec.Query); err != nil {
				return fail(fmt.Errorf("%w: replayed unregistration of query %d failed: %v", ErrCorrupt, rec.Query, err))
			}
		case RecordDrop:
			// Advisory accounting for shed batches; nothing to apply.
		}
	}
	return &Guard{
		inner: mon,
		dir:   dir,
		every: opts.Every,
		aux:   opts.Aux,
		wal:   wal,
		epoch: m.epoch,
	}, m.aux, nil
}
