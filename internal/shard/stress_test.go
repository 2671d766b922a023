package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/stream"
)

// TestConcurrentChurnStress drives explicit-deletion cycles, each checked
// on every shard before any shard applies it, while other goroutines
// register, unregister, read results and sample counters — the access
// pattern the single engine forbids and the sharded monitor exists to
// serve. TestDataConcurrentChurnStress covers the append-only cycle. Run
// under -race this is the memory-safety proof; the functional assertions
// are deliberately weak (counts, error-freedom) because interleaving is
// nondeterministic.
func TestConcurrentChurnStress(t *testing.T) {
	const (
		dims     = 3
		shards   = 4
		cycles   = 60
		rate     = 80
		live     = 1500
		churners = 3
	)
	sh, err := NewData(core.Options{Dims: dims, Mode: core.UpdateStream, TargetCells: 64}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	gen := stream.NewGenerator(stream.IND, dims, 5)
	if _, err := sh.StepUpdate(0, gen.Batch(live, 0), nil); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, churners+1)

	// Churners: register a query, read its result a few times, drop it.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qg := stream.NewQueryGenerator(stream.FuncLinear, dims, seed)
			rng := rand.New(rand.NewSource(seed))
			var owned []core.QueryID
			for !stop.Load() {
				switch {
				case len(owned) < 8:
					id, err := sh.Register(core.QuerySpec{F: qg.Next(), K: 1 + rng.Intn(10), Policy: core.TMA})
					if err != nil {
						errc <- err
						return
					}
					owned = append(owned, id)
				case rng.Intn(2) == 0:
					id := owned[rng.Intn(len(owned))]
					if _, err := sh.Result(id); err != nil {
						errc <- err
						return
					}
					sh.Stats()
					sh.ShardLoads()
				default:
					j := rng.Intn(len(owned))
					if err := sh.Unregister(owned[j]); err != nil {
						errc <- err
						return
					}
					owned = append(owned[:j], owned[j+1:]...)
				}
			}
			for _, id := range owned {
				if err := sh.Unregister(id); err != nil {
					errc <- err
					return
				}
			}
		}(int64(100 + c))
	}

	// The stepping goroutine: the stream never pauses while queries
	// churn, and every cycle deletes the rate oldest tuples. Influence-list
	// invariants are verified after every cycle, continuously, with the
	// churners still racing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		next := uint64(0)
		for ts := int64(1); ts <= cycles; ts++ {
			deletions := make([]uint64, rate)
			for i := range deletions {
				deletions[i] = next
				next++
			}
			if _, err := sh.StepUpdate(ts, gen.Batch(rate, ts), deletions); err != nil {
				errc <- err
				return
			}
			if err := sh.CheckInfluence(); err != nil {
				errc <- fmt.Errorf("cycle %d: %w", ts, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if n := sh.NumQueries(); n != 0 {
		t.Fatalf("expected all churned queries unregistered, %d left", n)
	}
	if got, want := sh.NumPoints(), live; got != want {
		t.Fatalf("NumPoints = %d, want %d", got, want)
	}
}
