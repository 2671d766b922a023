package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/window"
)

// failAfter returns an engine factory that succeeds n times and then
// fails, exercising the mid-construction error path that identical
// options can never reach (their validation is deterministic, so either
// shard 0 fails or none do).
func failAfter(n int) func(core.Options) (*core.Engine, error) {
	calls := 0
	return func(opts core.Options) (*core.Engine, error) {
		if calls++; calls > n {
			return nil, fmt.Errorf("injected failure after %d engines", n)
		}
		return core.NewEngine(opts)
	}
}

// TestNewFailureStopsWorkers: a constructor that fails mid-way must tear
// down the workers it already started — close their job channels AND wait
// for the goroutines — so nothing outlives the failed call.
func TestNewFailureStopsWorkers(t *testing.T) {
	opts := core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16}
	for name, construct := range map[string]func() error{
		"data": func() error {
			_, err := newDataWithFactory(opts, 4, failAfter(2))
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			// The guarantee under test: when the constructor returns its
			// error, every worker goroutine it started has already been
			// waited for — none outlive the call, not even transiently.
			// The check runs immediately after the call (any settling
			// delay would mask the old close-without-wait behavior, whose
			// workers exit only once the scheduler gets to them). A
			// handful of attempts absorbs scheduler noise: the broken
			// path leaves stragglers on nearly every attempt, the fixed
			// path on none.
			const attempts = 20
			initial := runtime.NumGoroutine()
			stragglers := 0
			for a := 0; a < attempts; a++ {
				before := runtime.NumGoroutine()
				if err := construct(); err == nil {
					t.Fatal("constructor should have failed")
				}
				if runtime.NumGoroutine() > before {
					stragglers++
				}
			}
			if stragglers > attempts/4 {
				t.Fatalf("failed constructor returned with live worker goroutines in %d/%d attempts",
					stragglers, attempts)
			}
			// And nothing may leak permanently either.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > initial {
				if time.Now().After(deadline) {
					t.Fatalf("worker goroutines leaked permanently: %d running, started at %d",
						runtime.NumGoroutine(), initial)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRegisterRollbackConcurrent: rejected specs must never burn query
// ids, even when registrations race — the documented "ids match the
// single engine" property. Registration validates on shard 0 before any
// other shard sees the spec, serialized against every other registration.
func TestRegisterRollbackConcurrent(t *testing.T) {
	sh, err := NewData(core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	const (
		workers = 4
		iters   = 60
	)
	var mu sync.Mutex
	var got []core.QueryID
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (i+w)%2 == 0 {
					// Rejected spec: K=0 fails engine validation.
					if _, err := sh.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 0}); err == nil {
						t.Error("K=0 should be rejected")
						return
					}
				} else {
					id, err := sh.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 2})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					got = append(got, id)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, id := range got {
		if id != core.QueryID(i) {
			t.Fatalf("query ids not dense (rejected specs burned ids): %v", got)
		}
	}
	last, err := sh.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := core.QueryID(len(got)); last != want {
		t.Fatalf("next id after churn = %d, want %d (ids burned)", last, want)
	}
}
