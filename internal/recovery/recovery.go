// Package recovery makes the monitoring engine crash-safe: a checkpoint
// writer that serializes a monitor's complete identity — options, clock,
// query-id watermark, every registered query via the core snapshot
// machinery, and the window tail — into versioned, checksummed,
// atomically-renamed files, plus a window-tail write-ahead log appended
// per ingested batch, so that recovery is "load the latest checkpoint,
// replay the WAL suffix" and the rebuilt engine is byte-identical to the
// lost one (asserted transcript-for-transcript by the crash-recovery
// differential tests in internal/difftest).
//
// The restore path rebuilds the index by re-ingesting the checkpointed
// window tail into a freshly constructed monitor: no expiration can fire
// during the replay (every tail tuple is still valid at the exported
// clock, and a count-based tail never exceeds N), queries are imported
// afterwards at their original ids, and the exact clock and id watermark
// are pinned last. Tuples inside query snapshots are serialized by id and
// resolved against the reloaded tail — at a cycle barrier every tuple a
// query references is live, so resolution is total.
//
// Durability contract (see doc.go "Durability guarantees" for the long
// form): a batch is WAL-logged before it is applied, so a crash between
// the two replays it; registrations are logged after they succeed;
// batches shed by the pipeline's admission governor get advisory drop
// records so loss stays accounted. Checkpoints always fsync; WAL appends
// fsync per SyncPolicy.
//
// The //topk:deterministic directive below puts this package under the
// topklint determinism analyzer: no wall-clock reads, no unseeded
// randomness, no map-iteration-order leaks into outputs, no ad-hoc
// goroutines — recovery must replay to the same bytes every time.
//
//topk:deterministic
package recovery

import "errors"

// Typed failure modes, so callers distinguish "nothing to restore" and
// "wrong format version" from actual corruption, and never restore
// garbage silently.
var (
	// ErrNoCheckpoint is reported by Restore when the directory holds no
	// checkpoint manifest.
	ErrNoCheckpoint = errors.New("recovery: no checkpoint")
	// ErrCorrupt is reported when a checkpoint or WAL record fails its
	// integrity checks: bad magic, bad checksum, impossible structure, or
	// references to tuples the tail does not contain.
	ErrCorrupt = errors.New("recovery: corrupt data")
	// ErrVersion is reported when a file's format version is not the one
	// this build reads or writes.
	ErrVersion = errors.New("recovery: unsupported format version")
	// ErrUnsupportedFunction is reported when a query's scoring function
	// is not one of the serializable families (linear, product,
	// quadratic); such queries cannot be checkpointed.
	ErrUnsupportedFunction = errors.New("recovery: unsupported scoring function")
)

// SyncPolicy selects how eagerly WAL appends reach stable storage.
// Checkpoint files always fsync before the atomic rename, regardless of
// policy.
type SyncPolicy int

const (
	// SyncNone leaves WAL flushing to the OS: cheapest, and a machine
	// crash may lose the most recent appends (a process crash loses
	// nothing — the records are in the page cache).
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs the WAL after every appended record.
	SyncAlways
)
