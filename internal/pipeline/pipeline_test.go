package pipeline

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// gateMon is a stub monitor whose Step blocks until the test releases it,
// making queue occupancy deterministic. Each applied cycle emits one
// Update tagged with its timestamp so tests can assert ordered,
// exactly-once delivery.
type gateMon struct {
	gate    chan struct{}
	mu      sync.Mutex
	applied []int64
	closed  bool
}

func newGateMon() *gateMon { return &gateMon{gate: make(chan struct{}, 1024)} }

// release lets n queued Step calls proceed.
func (g *gateMon) release(n int) {
	for i := 0; i < n; i++ {
		g.gate <- struct{}{}
	}
}

func (g *gateMon) appliedNow() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int64(nil), g.applied...)
}

func (g *gateMon) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	<-g.gate
	g.mu.Lock()
	g.applied = append(g.applied, now)
	g.mu.Unlock()
	return []core.Update{{Query: core.QueryID(now)}}, nil
}

func (g *gateMon) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
	return g.Step(now, arrivals)
}

func (g *gateMon) Register(core.QuerySpec) (core.QueryID, error) { return 0, nil }
func (g *gateMon) Unregister(core.QueryID) error                 { return nil }
func (g *gateMon) Result(core.QueryID) ([]core.Entry, error)     { return nil, nil }
func (g *gateMon) Stats() core.Stats                             { return core.Stats{} }
func (g *gateMon) MemoryBytes() int64                            { return 0 }
func (g *gateMon) NumPoints() int                                { return len(g.appliedNow()) }
func (g *gateMon) NumQueries() int                               { return 0 }
func (g *gateMon) Now() int64                                    { return 0 }
func (g *gateMon) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	return nil
}

// collect drains a pipeline's Updates channel into an ordered slice until
// the channel closes.
func collect(p *Pipeline) (*[][]core.Update, chan struct{}) {
	out := &[][]core.Update{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range p.Updates() {
			*out = append(*out, batch)
		}
	}()
	return out, done
}

// TestOrderedDelivery: every ingested batch is applied and its updates
// delivered in ingest order, with Flush as the delivery barrier.
func TestOrderedDelivery(t *testing.T) {
	g := newGateMon()
	p := New(g, Options{Depth: 3})
	got, done := collect(p)
	g.release(64)
	for ts := int64(1); ts <= 20; ts++ {
		if err := p.Ingest(ts, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if len(*got) != 20 {
		t.Fatalf("delivered %d batches, want 20", len(*got))
	}
	for i, batch := range *got {
		if len(batch) != 1 || batch[0].Query != core.QueryID(i+1) {
			t.Fatalf("delivery %d out of order: %+v", i, batch)
		}
	}
	if applied := g.appliedNow(); len(applied) != 20 {
		t.Fatalf("applied %d batches, want 20", len(applied))
	}
}

// TestBlockAtDepth: a producer stalls at depth and resumes when the runner
// drains, losing nothing.
func TestBlockAtDepth(t *testing.T) {
	g := newGateMon()
	p := New(g, Options{Depth: 2})
	_, done := collect(p)

	var ingested atomic.Int64
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for ts := int64(1); ts <= 10; ts++ {
			if err := p.Ingest(ts, nil); err != nil {
				t.Errorf("ingest %d: %v", ts, err)
				return
			}
			ingested.Add(1)
		}
	}()

	// The runner is gated: one batch in flight plus depth queued. The
	// producer must stall at 3 ingested (1 applied-in-progress + 2 queued).
	deadline := time.Now().Add(2 * time.Second)
	for ingested.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := ingested.Load(); n != 3 {
		t.Fatalf("producer ingested %d batches against a gated runner, want exactly 3", n)
	}
	g.release(64)
	<-prodDone
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(g.appliedNow()); n != 10 {
		t.Fatalf("applied %d, want 10 (a full queue must not shed)", n)
	}
	if d := p.Dropped(); d != 0 {
		t.Fatalf("Dropped = %d without a governor", d)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestCloseWithQueuedBatches: Close is a drain barrier — batches queued
// (and blocked) at Close time are applied and delivered before the
// Updates channel closes, and the wrapped monitor is closed after.
func TestCloseWithQueuedBatches(t *testing.T) {
	g := newGateMon()
	p := New(g, Options{Depth: 4})
	got, done := collect(p)
	for ts := int64(1); ts <= 4; ts++ {
		if err := p.Ingest(ts, nil); err != nil {
			t.Fatal(err)
		}
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- p.Close() }()
	// Close must be waiting on the gated batches, not discarding them.
	time.Sleep(10 * time.Millisecond)
	g.release(64)
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	<-done
	if n := len(g.appliedNow()); n != 4 {
		t.Fatalf("Close applied %d of 4 queued batches", n)
	}
	if n := len(*got); n != 4 {
		t.Fatalf("Close delivered %d of 4 update batches", n)
	}
	g.mu.Lock()
	closed := g.closed
	g.mu.Unlock()
	if !closed {
		t.Fatal("Close did not close the wrapped monitor")
	}
	// Double Close and post-Close behavior.
	if err := p.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if err := p.Ingest(9, nil); err == nil {
		t.Fatal("Ingest after Close must fail")
	}
	if err := p.Flush(); err == nil {
		t.Fatal("Flush after Close must fail")
	}
	if n := p.NumPoints(); n != 4 {
		t.Fatalf("counter reads after Close: NumPoints = %d, want 4", n)
	}
}

// TestDoubleFlush: repeated and concurrent flushes are all answered, with
// every prior batch applied.
func TestDoubleFlush(t *testing.T) {
	g := newGateMon()
	g.release(1024)
	p := New(g, Options{Depth: 2})
	_, done := collect(p)
	for ts := int64(1); ts <= 5; ts++ {
		if err := p.Ingest(ts, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Flush(); err != nil {
				t.Errorf("concurrent flush: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(g.appliedNow()); n != 5 {
		t.Fatalf("applied %d, want 5", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestStepRejected: the synchronous cycle entry points are rejected on a
// pipelined monitor.
func TestStepRejected(t *testing.T) {
	g := newGateMon()
	p := New(g, Options{})
	defer p.Close()
	if _, err := p.Step(1, nil); err == nil {
		t.Fatal("Step on a pipeline must fail")
	}
	if _, err := p.StepUpdate(1, nil, nil); err == nil {
		t.Fatal("StepUpdate on a pipeline must fail")
	}
}

// TestCycleErrorSticky: a failing cycle poisons the pipeline — the error
// surfaces on Flush and subsequent Ingests, and remaining batches are
// discarded (the engine state is undefined, as with synchronous Step).
func TestCycleErrorSticky(t *testing.T) {
	eng, err := core.NewEngine(core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := New(eng, Options{Depth: 2})
	_, done := collect(p)
	gen := stream.NewGenerator(stream.IND, 2, 1)
	if err := p.Ingest(5, gen.Batch(10, 5)); err != nil {
		t.Fatal(err)
	}
	// Time going backwards is a cycle validation error.
	if err := p.Ingest(3, gen.Batch(10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err == nil {
		t.Fatal("Flush must surface the cycle error")
	}
	if err := p.Ingest(6, gen.Batch(10, 6)); err == nil {
		t.Fatal("Ingest after a cycle error must fail")
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close must surface the cycle error")
	}
	<-done
}

// TestPreFailureDeliveriesSurvive: updates computed before a failing
// cycle must still reach the consumer even when the error is recorded
// before the deliverer gets to them (slow consumer); only post-failure
// async cycles are suppressed.
func TestPreFailureDeliveriesSurvive(t *testing.T) {
	eng, err := core.NewEngine(core.Options{Dims: 2, Window: window.Count(100), TargetCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := New(eng, Options{Depth: 4})
	if _, err := p.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: core.TMA}); err != nil {
		t.Fatal(err)
	}
	gen := stream.NewGenerator(stream.IND, 2, 3)
	// Cycle 5 produces updates (fresh tuples into an empty window); cycle 3
	// then fails validation (time backwards). No consumer runs yet, so the
	// error is recorded long before cycle 5's delivery is consumed.
	if err := p.Ingest(5, gen.Batch(10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(3, gen.Batch(10, 3)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	got, done := collect(p)
	if err := p.Close(); err == nil {
		t.Fatal("Close must surface the cycle error")
	}
	<-done
	if len(*got) != 1 {
		t.Fatalf("pre-failure cycle delivered %d batches, want 1", len(*got))
	}
}

// TestConcurrentLifecycleStress is the -race lifecycle proof demanded by
// the pipeline: churners register, read and unregister queries and issue
// flushes while a producer ingests cycles, over the pipelined sharded
// monitor; the run ends with Close racing in-flight ingestion. The
// influence-list invariant is verified behind the pipeline barrier every
// few cycles, continuously rather than only at end-of-run.
func TestConcurrentLifecycleStress(t *testing.T) {
	for _, mode := range []string{"query-part", "data-part"} {
		t.Run(mode, func(t *testing.T) {
			opts := core.Options{Dims: 3, Window: window.Count(1200), TargetCells: 64}
			var mon core.StreamMonitor
			var err error
			if mode == "data-part" {
				mon, err = shard.NewData(opts, 4)
			} else {
				mon, err = shard.New(opts, 4)
			}
			if err != nil {
				t.Fatal(err)
			}
			p := New(mon, Options{Depth: 3})
			_, done := collect(p)

			gen := stream.NewGenerator(stream.IND, 3, 9)
			if err := p.Ingest(0, gen.Batch(1200, 0)); err != nil {
				t.Fatal(err)
			}

			const cycles = 60
			var stop atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, 8)

			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					qg := stream.NewQueryGenerator(stream.FuncLinear, 3, seed)
					rng := rand.New(rand.NewSource(seed))
					var owned []core.QueryID
					for !stop.Load() {
						switch {
						case len(owned) < 5:
							id, err := p.Register(core.QuerySpec{F: qg.Next(), K: 1 + rng.Intn(8), Policy: core.SMA})
							if err != nil {
								errc <- err
								return
							}
							owned = append(owned, id)
						case rng.Intn(3) == 0:
							if _, err := p.Result(owned[rng.Intn(len(owned))]); err != nil {
								errc <- err
								return
							}
							p.Stats()
							p.MemoryBytes()
						case rng.Intn(3) == 0:
							if err := p.Flush(); err != nil {
								errc <- err
								return
							}
						default:
							j := rng.Intn(len(owned))
							if err := p.Unregister(owned[j]); err != nil {
								errc <- err
								return
							}
							owned = append(owned[:j], owned[j+1:]...)
						}
					}
					for _, id := range owned {
						if err := p.Unregister(id); err != nil {
							errc <- err
							return
						}
					}
				}(int64(300 + c))
			}

			for ts := int64(1); ts <= cycles; ts++ {
				if err := p.Ingest(ts, gen.Batch(60, ts)); err != nil {
					t.Fatal(err)
				}
				if ts%8 == 0 {
					if err := p.CheckInfluence(); err != nil {
						t.Fatalf("cycle %d: %v", ts, err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if err := p.CheckInfluence(); err != nil {
				t.Fatal(err)
			}
			if n := p.NumQueries(); n != 0 {
				t.Fatalf("%d queries left registered", n)
			}
			if got := p.NumPoints(); got != 1200 {
				t.Fatalf("NumPoints = %d, want 1200", got)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			<-done
		})
	}
}

// TestCloseReleasesBlockedProducer: a producer blocked on a full queue is
// released with an error when the pipeline closes underneath it.
func TestCloseReleasesBlockedProducer(t *testing.T) {
	g := newGateMon()
	p := New(g, Options{Depth: 1})
	_, done := collect(p)
	if err := p.Ingest(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(2, nil); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- p.Ingest(3, nil) }()
	time.Sleep(10 * time.Millisecond)
	closeErr := make(chan error, 1)
	go func() { closeErr <- p.Close() }()
	time.Sleep(10 * time.Millisecond)
	g.release(64)
	if err := <-blocked; err == nil {
		t.Fatal("blocked Ingest must fail when the pipeline closes")
	}
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestFixedDepthUnchanged: the queue stays at Depth — the producer blocks
// once the queue (plus the runner's in-flight batch) is full, and the
// high-water mark never exceeds the depth.
func TestFixedDepthUnchanged(t *testing.T) {
	g := newGateMon()
	p := New(g, Options{Depth: 2})
	_, done := collect(p)
	// The runner dequeues one batch into the stalled Step, so depth+1
	// ingests are absorbed; the next must block.
	for ts := int64(1); ts <= 3; ts++ {
		if err := p.Ingest(ts, nil); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		if err := p.Ingest(4, nil); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-blocked:
		t.Fatal("Ingest past the fixed bound should have blocked at depth 2")
	case <-time.After(50 * time.Millisecond):
	}
	g.release(1024)
	<-blocked
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if hw := p.Stats().QueueHighWater; hw != 2 {
		t.Fatalf("QueueHighWater = %d, want the depth 2", hw)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// dropRecorder captures LogDrop calls for shed-accounting assertions.
type dropRecorder struct {
	mu   sync.Mutex
	recs []struct {
		now       int64
		isUpdate  bool
		arrivals  int
		deletions int
	}
}

func (r *dropRecorder) LogDrop(now int64, isUpdate bool, arrivals []*stream.Tuple, deletions []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, struct {
		now       int64
		isUpdate  bool
		arrivals  int
		deletions int
	}{now, isUpdate, len(arrivals), len(deletions)})
}

// mkTuples builds n placeholder tuples (the gated monitor never reads them).
func mkTuples(n int) []*stream.Tuple {
	out := make([]*stream.Tuple, n)
	for i := range out {
		out[i] = &stream.Tuple{ID: uint64(i + 1), Vec: geom.Vector{0.5, 0.5}}
	}
	return out
}

// TestClosedTyped: every operation on a closed pipeline reports ErrClosed
// through errors.Is, whatever wrapping the path added — the contract
// shutdown code relies on to tell an orderly close from a fault.
func TestClosedTyped(t *testing.T) {
	g := newGateMon()
	p := New(g, Options{Depth: 2})
	_, done := collect(p)
	g.release(64)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := p.Ingest(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after close: got %v, want ErrClosed", err)
	}
	if err := p.IngestUpdate(1, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("IngestUpdate after close: got %v, want ErrClosed", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after close: got %v, want ErrClosed", err)
	}
	if _, err := p.Register(core.QuerySpec{F: geom.NewLinear(1, 1), K: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after close: got %v, want ErrClosed", err)
	}
	if err := p.Unregister(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Unregister after close: got %v, want ErrClosed", err)
	}
	if _, err := p.Result(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Result after close: got %v, want ErrClosed", err)
	}
}
