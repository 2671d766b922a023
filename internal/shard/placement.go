// Placement: where tuples live. A tuple lives on shardOfTuple(id, n) from
// arrival to expiry or deletion, and every query lives on every shard. The
// mapping reads no load, so the router keeps no per-tuple placement state,
// and a restore re-derives every tuple's shard from its id.

package shard

// ShardLoad describes one shard's current load, the per-shard figure
// surfaced through the public API.
type ShardLoad struct {
	// Shard is the shard index.
	Shard int
	// Queries is the number of queries registered on the shard (every
	// query runs on every shard).
	Queries int
	// EWMACycleNS is an exponentially weighted moving average (alpha 0.2)
	// of the shard's per-cycle wall time in nanoseconds.
	EWMACycleNS int64
	// Cost is the cumulative attributed maintenance cost of the queries
	// currently on the shard (see core.Stats: influence events + cells
	// processed + heap ops + cells walked).
	Cost int64
	// MemoryBytes is the shard engine's footprint.
	MemoryBytes int64
	// MemoryHighWater is the largest MemoryBytes figure the shard engine
	// has observed (refreshed by every footprint read, including this
	// gather).
	MemoryHighWater int64
	// MaxCellBytesHighWater is the largest single grid cell the shard
	// ever allocated, in bytes: the tuple-skew signal. Exact, maintained
	// by the grid at cell-growth time.
	MaxCellBytesHighWater int64
}

// gatherLoad reads one shard engine's current load. It must run on the
// worker's goroutine (broadcast closure): ewmaNS and the engine are
// worker-owned.
func gatherLoad(i int, w *worker) ShardLoad {
	var cost int64
	for _, qc := range w.eng.AppendQueryCosts(nil) {
		cost += qc.Cost
	}
	// MemoryBytes also refreshes the engine's high-water mark, so the
	// accessor below reads a figure at least as fresh as this gather.
	mem := w.eng.MemoryBytes()
	st := w.eng.Stats()
	return ShardLoad{
		Shard:                 i,
		Queries:               w.eng.NumQueries(),
		EWMACycleNS:           w.ewmaNS,
		Cost:                  cost,
		MemoryBytes:           mem,
		MemoryHighWater:       st.MemoryHighWater,
		MaxCellBytesHighWater: st.MaxCellBytesHighWater,
	}
}

// TupleBuckets is the size of the bucket space tuple ids hash onto before
// bucket b maps to shard b % n. It is part of the data-partitioned
// checkpoint format: a restore re-routes the window tail through
// shardOfTuple, so changing it would land tuples on shards whose engine
// state does not hold them.
const TupleBuckets = 256

// mix64 is the splitmix64 finalizer the tuple routing hashes with, so
// sequential ids spread uniformly rather than striping.
func mix64(id uint64) uint64 {
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardOfTuple hash-partitions a tuple id across n shards through the
// TupleBuckets bucket space.
func shardOfTuple(id uint64, n int) int {
	return int(mix64(id)%TupleBuckets) % n
}
