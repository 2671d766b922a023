// Package shard runs N independent core.Engine instances behind the same
// monitoring interface, turning the paper's single-server model into a
// concurrent engine without changing any algorithmic result. It follows
// the partition-and-merge pattern of distributed sliding-window monitoring
// (Papapetrou et al.; Chan et al.): DataSharded (NewData, data.go)
// partitions the *stream*. Tuples are hash-partitioned across shards,
// every query runs on every shard against its O(N/shards) slice, and the
// router k-way merges the per-shard partial results into the exact global
// answer. Index memory stays O(N) in total regardless of the shard count,
// at the price of a router-side merge on every cycle. Each shard engine is
// owned by exactly one worker goroutine (this file), so the core
// algorithms run unmodified and unlocked.
//
// Tuples are placed by hash alone (placement.go): nothing moves between
// shards once it has arrived.
//
// The differential tests in shard_test.go and data_test.go verify the
// monitor emits update streams identical to the single engine's for every
// policy, query type and stream mode.
package shard

import (
	"errors"
	"fmt"
	"time"

	"topkmon/internal/core"
)

// ErrStopped is reported (possibly wrapped) by mutating operations on a
// monitor whose workers have been stopped by Close, so shutdown and
// recovery paths can errors.Is-distinguish an orderly stop from a real
// fault. Counter reads keep working after Close and never report it.
var ErrStopped = errors.New("shard: monitor stopped")

// jobChanCap bounds each shard's job channel. A cycle queues one job
// per worker and waits for the fan-in, so only counter reads racing a
// cycle ever queue behind it.
const jobChanCap = 8

// worker owns one engine. Every access to eng happens on the worker
// goroutine, which drains jobs sequentially — the channel is the only
// synchronization the engine needs.
type worker struct {
	eng     *core.Engine
	jobs    chan func()
	stopped chan struct{}
	// ewmaNS smooths the shard's per-cycle wall time (alpha 0.2). Like
	// eng, it is read and written on the worker goroutine only.
	ewmaNS int64
}

// noteCycle folds one cycle's wall time into the worker's EWMA. It runs on
// the worker goroutine (the only writer).
func (w *worker) noteCycle(d time.Duration) {
	ns := d.Nanoseconds()
	if w.ewmaNS == 0 {
		w.ewmaNS = ns
		return
	}
	w.ewmaNS += (ns - w.ewmaNS) / 5
}

func (w *worker) loop() {
	for job := range w.jobs {
		job()
	}
	close(w.stopped)
}

// call runs fn on the worker goroutine and waits for it to finish.
//
//topk:blocking
func (w *worker) call(fn func()) {
	done := make(chan struct{})
	w.jobs <- func() {
		fn()
		close(done)
	}
	<-done
}

// spawnWorkers builds n engines and starts one worker goroutine per
// engine. On a mid-construction failure the workers already started are
// torn down completely — job channels closed and goroutines awaited — so a
// failed constructor leaks nothing.
func spawnWorkers(opts core.Options, n int, factory func(core.Options) (*core.Engine, error)) ([]*worker, error) {
	workers := make([]*worker, n)
	for i := range workers {
		eng, err := factory(opts)
		if err != nil {
			for _, w := range workers[:i] {
				close(w.jobs)
			}
			for _, w := range workers[:i] {
				<-w.stopped
			}
			return nil, err
		}
		w := &worker{
			eng:     eng,
			jobs:    make(chan func(), jobChanCap),
			stopped: make(chan struct{}),
		}
		workers[i] = w
		go w.loop()
	}
	return workers, nil
}

// checkInfluenceAll runs core.Engine.CheckInfluence on every shard engine
// through the monitor's broadcast — each check executes atomically on its
// worker goroutine, serialized against queued cycles — and returns the
// first failure.
func checkInfluenceAll(n int, broadcast func(func(int, *core.Engine))) error {
	errs := make([]error, n)
	broadcast(func(i int, e *core.Engine) {
		errs[i] = e.CheckInfluence()
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
