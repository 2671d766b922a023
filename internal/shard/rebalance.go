// Live query migration and cost-aware rebalancing for the
// query-partitioned sharded monitor.
//
// A migration moves one query's complete state — spec, current top-k,
// skyband contents, influence-cell set, reporting baseline, attributed
// cost — from one shard engine to another as export → import →
// route-table swap (core.Engine.ExportQuery / ImportQuery). Because every
// shard indexes the identical broadcast stream, the snapshot's tuple
// pointers are the very pointers the target engine already holds, and the
// imported query's subsequent behavior is byte-identical to what it would
// have produced on the source — the property the differential harness
// asserts with forced mid-run migrations against the single engine.
//
// Migrations execute only at cycle barriers: the mover holds stepMu (no
// new cycles can be submitted), drains every shard's job queue (all
// submitted cycles — including StepAsync tickets still in flight for the
// pipeline — have been applied, so all engines sit at the same cycle
// count), and performs the move under the routing-table lock so Register,
// Unregister and Result never observe a half-moved query.
//
// The rebalancer runs every RebalanceConfig.Interval cycles. It attributes
// cost per query (cells walked, heap operations, influence events —
// deterministic counters, not wall time, so decisions reproduce run to
// run), computes each shard's cost accrued since the last pass, and when
// max/mean exceeds the threshold it greedily moves the most expensive
// movable queries from the hottest shard to the coldest until the gap
// closes or MaxMoves is reached.

package shard

import (
	"fmt"
	"sort"
	"sync"

	"topkmon/internal/core"
)

// RebalanceConfig enables periodic cost-aware rebalancing on a
// query-partitioned sharded monitor.
type RebalanceConfig struct {
	// Interval runs a rebalance check every this many processing cycles.
	// Zero (the default) disables rebalancing; negative is invalid.
	Interval int
	// Threshold is the imbalance ratio that triggers migrations: a pass
	// moves queries only while the hottest shard's per-pass cost exceeds
	// Threshold × the mean shard cost. Zero selects the default 1.2;
	// values below 1 are invalid (the max can never undercut the mean).
	Threshold float64
	// MaxMoves bounds the migrations of one pass. Zero selects the default
	// 4; negative is invalid.
	MaxMoves int
	// MemoryWeight scales the memory term of the per-shard cost under
	// data partitioning (databalance.go): the engine footprint plus the
	// cap-aware per-cell bytes high-water, normalized to the fleet total,
	// enters the cost multiplied by this weight alongside the normalized
	// maintenance-work delta. Zero selects the default 1; negative is
	// invalid. Query-partitioned rebalancing ignores it (queries migrate
	// on attributed cost; their state is replicated either way).
	MemoryWeight float64
}

// DefaultRebalanceThreshold is the max/mean cost ratio a rebalance pass
// tolerates before migrating queries.
const DefaultRebalanceThreshold = 1.2

// DefaultRebalanceMaxMoves bounds migrations per rebalance pass.
const DefaultRebalanceMaxMoves = 4

func (c RebalanceConfig) validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("shard: rebalance interval must be non-negative, got %d", c.Interval)
	}
	if c.Threshold != 0 && c.Threshold < 1 {
		return fmt.Errorf("shard: rebalance threshold must be >= 1, got %g", c.Threshold)
	}
	if c.MaxMoves < 0 {
		return fmt.Errorf("shard: rebalance max moves must be non-negative, got %d", c.MaxMoves)
	}
	if c.MemoryWeight < 0 {
		return fmt.Errorf("shard: rebalance memory weight must be non-negative, got %g", c.MemoryWeight)
	}
	return nil
}

func (c RebalanceConfig) threshold() float64 {
	if c.Threshold == 0 {
		return DefaultRebalanceThreshold
	}
	return c.Threshold
}

func (c RebalanceConfig) maxMoves() int {
	if c.MaxMoves == 0 {
		return DefaultRebalanceMaxMoves
	}
	return c.MaxMoves
}

func (c RebalanceConfig) memoryWeight() float64 {
	if c.MemoryWeight == 0 {
		return DefaultRebalanceMemoryWeight
	}
	return c.MemoryWeight
}

// drainWorkers blocks until every shard has applied all currently queued
// jobs — the cycle barrier migrations require. Callers hold stepMu (so no
// new cycles are submitted meanwhile) and closeMu.RLock with the monitor
// open.
func (s *Sharded) drainWorkers() {
	s.drains.Add(1)
	var wg sync.WaitGroup
	wg.Add(len(s.workers))
	for _, w := range s.workers {
		w.jobs <- func() { wg.Done() }
	}
	wg.Wait()
}

// QueryMove names one query's migration target, the unit of a batched
// migration pass.
type QueryMove struct {
	Query  core.QueryID
	Target int
}

// MigrateQuery moves a registered query to the given shard at a cycle
// barrier. It blocks new cycle submissions, waits for all in-flight cycles
// (including pipelined StepAsync tickets) to be applied on every shard,
// then executes export → import → route-table swap. Migrating a query to
// the shard it already lives on is a no-op. The query's results, update
// stream and attributed cost are unaffected — only the engine doing the
// work changes.
func (s *Sharded) MigrateQuery(id core.QueryID, target int) error {
	return s.MigrateQueries([]QueryMove{{Query: id, Target: target}})
}

// MigrateQueries executes a batch of migrations under a single cycle
// barrier: one drain stalls the monitor once, however many queries move.
// Moves are applied in order; the first failing move stops the batch and
// returns its error, leaving the already-applied moves in place (each
// individual move is atomic, so the routing table is always consistent).
// The rebalancer routes its per-pass moves through the same executor.
func (s *Sharded) MigrateQueries(moves []QueryMove) error {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrStopped
	}
	for _, m := range moves {
		if m.Target < 0 || m.Target >= len(s.workers) {
			return fmt.Errorf("shard: migration target %d out of range [0,%d)", m.Target, len(s.workers))
		}
	}
	if len(moves) == 0 {
		return nil
	}
	s.drainWorkers()
	return s.applyMovesDrained(moves)
}

// applyMovesDrained executes a planned move batch. Callers hold stepMu and
// closeMu.RLock with the monitor open and the workers drained.
func (s *Sharded) applyMovesDrained(moves []QueryMove) error {
	for _, m := range moves {
		if err := s.migrateDrained(m.Query, m.Target); err != nil {
			return err
		}
	}
	return nil
}

// migrateDrained executes one migration. Callers hold stepMu and
// closeMu.RLock with the monitor open and the workers drained. The whole
// move runs under migMu and mu, so a Result or Unregister that resolved
// the old route finishes first, later ones resolve the new one, and no
// reader of the routing table sees the query on zero or two shards.
func (s *Sharded) migrateDrained(id core.QueryID, target int) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.routes[id]
	if !ok {
		return fmt.Errorf("shard: unknown query %d", id)
	}
	if r.shard == target {
		return nil
	}
	src, dst := s.workers[r.shard], s.workers[target]

	// Export is read-only on the source: an import failure leaves the
	// query exactly where it was.
	var snap core.QuerySnapshot
	var err error
	//topk:allow locks cold migration path behind a drained cycle barrier; worker jobs never take s.mu, and atomicity of the route swap requires holding it
	src.call(func() { snap, err = src.eng.ExportQuery(r.local) })
	if err != nil {
		return fmt.Errorf("shard: export query %d from shard %d: %w", id, r.shard, err)
	}
	var local core.QueryID
	//topk:allow locks see the export call above: drained worker, no lock cycle, atomic swap
	dst.call(func() {
		local, err = dst.eng.ImportQuery(snap)
		if err == nil {
			dst.localToGlobal[local] = id
		}
	})
	if err != nil {
		return fmt.Errorf("shard: import query %d into shard %d: %w", id, target, err)
	}
	//topk:allow locks see the export call above: drained worker, no lock cycle, atomic swap
	src.call(func() {
		delete(src.localToGlobal, r.local)
		err = src.eng.Unregister(r.local)
	})
	if err != nil {
		// Cannot happen for a routed query; if it does, the target copy is
		// authoritative and the route moves with it.
		err = fmt.Errorf("shard: source cleanup of query %d on shard %d: %w", id, r.shard, err)
	}
	s.routes[id] = route{shard: target, local: local}
	s.counts[r.shard]--
	s.counts[target]++
	s.migrations.Add(1)
	return err
}

// maybeRebalanceLocked counts the completed cycle and runs a rebalance
// pass every Interval cycles. Callers hold stepMu.
func (s *Sharded) maybeRebalanceLocked() {
	if s.rebalance.Interval <= 0 {
		return
	}
	s.cycleCount++
	if s.cycleCount%int64(s.rebalance.Interval) != 0 {
		return
	}
	s.rebalanceLocked()
}

// queryLoad is one query's cost accrued since the last rebalance pass.
type queryLoad struct {
	id    core.QueryID
	delta int64
}

// rebalanceLocked runs one rebalance pass: drain, attribute per-query cost
// deltas, and migrate the most expensive queries off the hottest shard
// while the imbalance exceeds the threshold. Callers hold stepMu.
func (s *Sharded) rebalanceLocked() {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return
	}
	s.drainWorkers()

	// Gather every query's cumulative cost, translated to global ids on
	// the worker goroutines (ordered by local id — deterministic), along
	// with the per-shard EWMAs for the router-side load cache.
	n := len(s.workers)
	per := make([][]queryLoad, n)
	ewmas := make([]int64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i, w := range s.workers {
		w.jobs <- func() {
			defer wg.Done()
			costs := w.eng.AppendQueryCosts(nil)
			loads := make([]queryLoad, len(costs))
			for j, qc := range costs {
				loads[j] = queryLoad{id: w.localToGlobal[qc.ID], delta: qc.Cost}
			}
			per[i] = loads
			ewmas[i] = w.ewmaNS.Load()
		}
	}
	wg.Wait()

	// Refresh the placement policy's view with the cumulative figures,
	// then reduce each query to its delta since the last pass — hotness is
	// a property of the recent past, not of lifetime totals.
	if s.prevCost == nil {
		s.prevCost = make(map[core.QueryID]int64)
	}
	next := make(map[core.QueryID]int64, len(s.prevCost))
	sums := make([]int64, n)
	s.mu.Lock()
	for i := range per {
		var cum int64
		for j := range per[i] {
			q := &per[i][j]
			cum += q.delta
			prev := s.prevCost[q.id]
			next[q.id] = q.delta
			q.delta -= prev
			if q.delta < 0 {
				q.delta = 0
			}
			sums[i] += q.delta
		}
		s.costs[i] = cum
		s.ewmas[i] = ewmas[i]
	}
	s.mu.Unlock()
	s.prevCost = next

	var total int64
	for _, v := range sums {
		total += v
	}
	if total == 0 {
		return
	}
	mean := float64(total) / float64(n)
	thr := s.rebalance.threshold()

	// Largest delta first; ties by id so passes reproduce exactly.
	for i := range per {
		sort.Slice(per[i], func(a, b int) bool {
			if per[i][a].delta != per[i][b].delta {
				return per[i][a].delta > per[i][b].delta
			}
			return per[i][a].id < per[i][b].id
		})
	}

	// Plan the pass's moves on the gathered bookkeeping alone, then apply
	// them as one batch through the shared drained executor — the workers
	// are already at the pass's cycle barrier, so the whole pass costs a
	// single drain no matter how many queries move.
	var moves []QueryMove
	for len(moves) < s.rebalance.maxMoves() {
		hot, cold := 0, 0
		for i := 1; i < n; i++ {
			if sums[i] > sums[hot] {
				hot = i
			}
			if sums[i] < sums[cold] {
				cold = i
			}
		}
		if float64(sums[hot]) <= thr*mean {
			break
		}
		// The largest query whose move shrinks the hot/cold gap without
		// inverting it: delta <= gap/2. A single monster query that *is*
		// the imbalance stays put — moving it would just move the hotspot.
		gap := sums[hot] - sums[cold]
		pick := -1
		for j, q := range per[hot] {
			if q.delta > 0 && q.delta <= gap/2 {
				pick = j
				break
			}
		}
		if pick < 0 {
			break
		}
		q := per[hot][pick]
		moves = append(moves, QueryMove{Query: q.id, Target: cold})
		sums[hot] -= q.delta
		sums[cold] += q.delta
		per[hot] = append(per[hot][:pick], per[hot][pick+1:]...)
		per[cold] = append(per[cold], q)
	}
	// A failed move (e.g. the query was unregistered between the gather
	// and now) invalidates the pass's bookkeeping; applyMovesDrained stops
	// there and the next pass re-plans.
	_ = s.applyMovesDrained(moves)
}
