package pipeline

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// countMon is a non-blocking stub monitor that records the shape of every
// applied batch — what the governor actually let through. An optional
// per-cycle delay makes it a controllable slow consumer for overload
// tests, and an optional gate holds every cycle until it is closed.
type countMon struct {
	delay   time.Duration
	gate    chan struct{}
	mu      sync.Mutex
	applied []appliedRec
}

type appliedRec struct {
	now       int64
	arrivals  int
	deletions int
}

func (m *countMon) record(now int64, arrivals, deletions int) {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if m.gate != nil {
		<-m.gate
	}
	m.mu.Lock()
	m.applied = append(m.applied, appliedRec{now, arrivals, deletions})
	m.mu.Unlock()
}

func (m *countMon) appliedNow() []appliedRec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]appliedRec(nil), m.applied...)
}

func (m *countMon) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	m.record(now, len(arrivals), 0)
	return nil, nil
}

func (m *countMon) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
	m.record(now, len(arrivals), len(deletions))
	return nil, nil
}

func (m *countMon) Register(core.QuerySpec) (core.QueryID, error) { return 0, nil }
func (m *countMon) Unregister(core.QueryID) error                 { return nil }
func (m *countMon) Result(core.QueryID) ([]core.Entry, error)     { return nil, nil }
func (m *countMon) Stats() core.Stats                             { return core.Stats{} }
func (m *countMon) MemoryBytes() int64                            { return 0 }
func (m *countMon) NumPoints() int                                { return 0 }
func (m *countMon) NumQueries() int                               { return 0 }
func (m *countMon) Now() int64                                    { return 0 }
func (m *countMon) Close() error                                  { return nil }

// decLog records AdmissionLog callbacks; fates() reduces them to each
// timestamp's decision, the admitted-subsequence view the overload
// differential harness reconstructs.
type decLog struct {
	mu  sync.Mutex
	seq []struct {
		now int64
		d   admission.Decision
	}
}

func (l *decLog) log(now int64, d admission.Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq = append(l.seq, struct {
		now int64
		d   admission.Decision
	}{now, d})
}

// fates maps each logged timestamp to its decision, failing the test if
// any batch was reported more than once: every offered batch has exactly
// one fate.
func (l *decLog) fates(t *testing.T) map[int64]admission.Decision {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int64]admission.Decision, len(l.seq))
	for _, e := range l.seq {
		if prev, dup := out[e.now]; dup {
			t.Fatalf("batch %d reported twice: %v, then %v", e.now, prev, e.d)
		}
		out[e.now] = e.d
	}
	return out
}

// sheddingGovernor returns a governor deterministically parked in
// Shedding with an empty token bucket, so its next Admit must return Shed.
func sheddingGovernor(t *testing.T, seed int64) *admission.Governor {
	t.Helper()
	gov := admission.New(admission.Config{Seed: seed})
	parkShedding(t, gov)
	return gov
}

// parkShedding drives gov into Shedding through a sustained full queue and
// spends its token bucket: the first Shed proves the bucket ran dry or the
// dropper fired, and further offers at a full queue, which earn no refill,
// spend whatever credit the dropper left.
func parkShedding(t *testing.T, gov *admission.Governor) {
	t.Helper()
	for i := 0; i < 50; i++ {
		gov.Admit(8, 8, 1, 0)
		gov.ObserveDrain(8, 8, 0)
	}
	if gov.State() != admission.Shedding {
		t.Fatalf("setup: governor state %v, want shedding", gov.State())
	}
	// Drain the token bucket: without intervening ObserveDrain calls each
	// admission only spends credit, so after at most a few rounds tokens
	// fall below one and every further decision is Shed.
	for i := 0; i < 64; i++ {
		if gov.Admit(8, 8, 1, 0) == admission.Shed {
			for j := 0; j < 200; j++ {
				gov.Admit(8, 8, 1, 0)
			}
			return
		}
	}
	t.Fatal("setup: token bucket never drained")
}

// TestAdmissionNormalPassthrough: an unloaded governor must change nothing
// — every batch admitted and applied intact, zero drops, the decision log
// reporting Admit for each.
func TestAdmissionNormalPassthrough(t *testing.T) {
	m := &countMon{}
	gov := admission.New(admission.Config{Seed: 1})
	dl := &decLog{}
	p := New(m, Options{Depth: 4, Admission: gov, AdmissionLog: dl.log})
	_, done := collect(p)
	// Flushing after every batch keeps the queue empty: a producer that
	// outran the runner would fill it, and occupancy alone moves the
	// governor into Shedding.
	for ts := int64(1); ts <= 10; ts++ {
		if err := p.Ingest(ts, mkTuples(2)); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.appliedNow()); n != 10 {
		t.Fatalf("applied %d batches, want 10", n)
	}
	if d := p.Dropped(); d != 0 {
		t.Fatalf("Dropped = %d with an unloaded governor", d)
	}
	fates := dl.fates(t)
	for ts := int64(1); ts <= 10; ts++ {
		if fates[ts] != admission.Admit {
			t.Fatalf("batch %d logged %v, want admit", ts, fates[ts])
		}
	}
	if got := p.Admission(); got != gov {
		t.Fatal("Admission() did not return the installed governor")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestAdmissionShedBlockPolicy: a governor Shed surfaces as an error
// wrapping admission.ErrOverloaded — distinguishable from ErrClosed and
// from a cycle fault — while the batch is counted, drop-logged, and the
// pipeline itself stays healthy.
func TestAdmissionShedBlockPolicy(t *testing.T) {
	m := &countMon{}
	gov := sheddingGovernor(t, 3)
	rec := &dropRecorder{}
	dl := &decLog{}
	p := New(m, Options{Depth: 4, Admission: gov, DropLog: rec, AdmissionLog: dl.log})
	_, done := collect(p)

	base := gov.Snapshot()
	err := p.Ingest(100, mkTuples(3))
	if !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("shed: got %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("shed error must not read as ErrClosed")
	}
	if d, dt := p.Dropped(), p.DroppedTuples(); d != 1 || dt != 3 {
		t.Fatalf("dropped batches/tuples = %d/%d, want 1/3", d, dt)
	}
	if got := gov.Snapshot().ShedBatches - base.ShedBatches; got != 1 {
		t.Fatalf("governor shed count moved by %d, want 1", got)
	}
	rec.mu.Lock()
	nrec := len(rec.recs)
	rec.mu.Unlock()
	if nrec != 1 {
		t.Fatalf("DropLog saw %d batches, want 1", nrec)
	}
	if fates := dl.fates(t); fates[100] != admission.Shed {
		t.Fatalf("batch 100 logged %v, want shed", fates[100])
	}
	// The rejection is advisory, not poisoning: once the governor drains
	// back to Normal, ingestion resumes error-free.
	for i := 0; i < 100; i++ {
		gov.Admit(0, 8, 1, 0)
		gov.ObserveDrain(0, 8, 0)
	}
	if gov.State() != admission.Normal {
		t.Fatalf("governor did not recover: %v", gov.State())
	}
	if err := p.Ingest(101, mkTuples(1)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestShedTupleAccounting: governor sheds of batches with different sizes
// must surface the exact number of lost stream events — arrivals plus
// explicit deletions — in Stats.DroppedTuples, and hand every shed batch
// to the configured DropLogger. A batch count alone would hide how much
// data a drop actually destroyed.
func TestShedTupleAccounting(t *testing.T) {
	// The gate holds the runner inside batch 1's cycle, so batch 2 stays
	// queued while batches 3 and 4 are offered: the governor sees a busy
	// queue, which earns no idle refill, and its spent bucket sheds both.
	m := &countMon{gate: make(chan struct{})}
	gov := admission.New(admission.Config{Seed: 8})
	rec := &dropRecorder{}
	p := New(m, Options{Depth: 2, Admission: gov, DropLog: rec})
	_, done := collect(p)

	// Batches 1 and 2 meet a Normal governor and are admitted; then a full
	// queue observed by the governor parks it in Shedding.
	for ts := int64(1); ts <= 2; ts++ {
		if err := p.Ingest(ts, mkTuples(1)); err != nil {
			t.Fatal(err)
		}
	}
	parkShedding(t, gov)
	// Batch 3 carries 3 events, batch 4 carries 7 (5 arrivals + 2 deletions).
	if err := p.Ingest(3, mkTuples(3)); !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("batch 3: got %v, want ErrOverloaded", err)
	}
	if err := p.IngestUpdate(4, mkTuples(5), []uint64{90, 91}); !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("batch 4: got %v, want ErrOverloaded", err)
	}
	close(m.gate)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied := m.appliedNow(); len(applied) != 2 || applied[0].now != 1 || applied[1].now != 2 {
		t.Fatalf("applied %+v, want batches 1 and 2 only", applied)
	}
	if d := p.DroppedTuples(); d != 10 {
		t.Fatalf("DroppedTuples = %d, want 10", d)
	}
	s := p.Stats()
	if s.DroppedBatches != 2 || s.DroppedTuples != 10 {
		t.Fatalf("Stats dropped batches/tuples = %d/%d, want 2/10", s.DroppedBatches, s.DroppedTuples)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.recs) != 2 {
		t.Fatalf("DropLog saw %d batches, want 2", len(rec.recs))
	}
	if r := rec.recs[0]; r.now != 3 || r.isUpdate || r.arrivals != 3 || r.deletions != 0 {
		t.Fatalf("first shed batch logged as %+v", r)
	}
	if r := rec.recs[1]; r.now != 4 || !r.isUpdate || r.arrivals != 5 || r.deletions != 2 {
		t.Fatalf("second shed batch logged as %+v", r)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestAdmissionCriticalStripsArrivals: in Critical the cycle still runs —
// timestamp advance and explicit deletions reach the engine so window
// expiry keeps shrinking state — but arrivals are stripped, counted as
// dropped tuples and drop-logged; deletion-only batches pass untouched.
func TestAdmissionCriticalStripsArrivals(t *testing.T) {
	m := &countMon{}
	gov := admission.New(admission.Config{Seed: 2, MemLimit: 1 << 20})
	gov.ObserveMemory(1<<20, 0)
	if gov.State() != admission.Critical {
		t.Fatalf("setup: governor state %v, want critical", gov.State())
	}
	rec := &dropRecorder{}
	dl := &decLog{}
	p := New(m, Options{Depth: 4, Admission: gov, DropLog: rec, AdmissionLog: dl.log})
	_, done := collect(p)

	if err := p.IngestUpdate(1, mkTuples(5), []uint64{70, 71}); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(2, mkTuples(3)); err != nil {
		t.Fatal(err)
	}
	if err := p.IngestUpdate(3, nil, []uint64{72}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	applied := m.appliedNow()
	if len(applied) != 3 {
		t.Fatalf("applied %d cycles, want 3 (Critical must not skip cycles)", len(applied))
	}
	if r := applied[0]; r.now != 1 || r.arrivals != 0 || r.deletions != 2 {
		t.Fatalf("cycle 1 applied as %+v, want arrivals stripped / deletions kept", r)
	}
	if r := applied[1]; r.now != 2 || r.arrivals != 0 {
		t.Fatalf("cycle 2 applied as %+v, want arrivals stripped", r)
	}
	if r := applied[2]; r.now != 3 || r.arrivals != 0 || r.deletions != 1 {
		t.Fatalf("deletion-only cycle 3 applied as %+v", r)
	}
	if d, dt := p.Dropped(), p.DroppedTuples(); d != 0 || dt != 8 {
		t.Fatalf("dropped batches/tuples = %d/%d, want 0/8 (strips are not batch drops)", d, dt)
	}
	fates := dl.fates(t)
	if fates[1] != admission.AdmitDeletions || fates[2] != admission.AdmitDeletions || fates[3] != admission.Admit {
		t.Fatalf("decision log %v, want admit-deletions/admit-deletions/admit", fates)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.recs) != 2 {
		t.Fatalf("DropLog saw %d stripped batches, want 2", len(rec.recs))
	}
	if r := rec.recs[0]; r.now != 1 || r.arrivals != 5 || r.deletions != 0 {
		t.Fatalf("first strip logged as %+v (deletions were applied, not dropped)", r)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestRefusedBatchNotGoverned: a batch a closed pipeline refuses had no
// admission fate. Even in Critical, where an admitted batch's arrivals are
// stripped, counted and drop-logged, Ingest after Close must report
// ErrClosed and leave the governor's counters, the drop figures, the drop
// log and the decision log untouched.
func TestRefusedBatchNotGoverned(t *testing.T) {
	m := &countMon{}
	gov := admission.New(admission.Config{Seed: 4, MemLimit: 1 << 20})
	gov.ObserveMemory(1<<20, 0)
	if gov.State() != admission.Critical {
		t.Fatalf("setup: governor state %v, want critical", gov.State())
	}
	rec := &dropRecorder{}
	dl := &decLog{}
	p := New(m, Options{Depth: 4, Admission: gov, DropLog: rec, AdmissionLog: dl.log})
	_, done := collect(p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	before, dropped := gov.Snapshot(), p.Stats().DroppedTuples
	if err := p.Ingest(1, mkTuples(5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after Close: got %v, want ErrClosed", err)
	}
	if err := p.IngestUpdate(2, mkTuples(3), []uint64{9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("update ingest after Close: got %v, want ErrClosed", err)
	}
	if after := gov.Snapshot(); after != before {
		t.Fatalf("refused batches moved the governor:\n before %+v\n after  %+v", before, after)
	}
	if got := p.Stats().DroppedTuples; got != dropped {
		t.Fatalf("DroppedTuples %d -> %d on refused batches", dropped, got)
	}
	rec.mu.Lock()
	nrec := len(rec.recs)
	rec.mu.Unlock()
	if nrec != 0 {
		t.Fatalf("DropLog saw %d refused batches, want 0", nrec)
	}
	if n := len(dl.fates(t)); n != 0 {
		t.Fatalf("decision log holds %d refused batches, want 0", n)
	}
}

// TestAIMDConvergence is the anti-livelock property test: a fixed-depth
// blocking queue and the AIMD governor both react to the same square-wave
// load, and they must converge — bursts fill the queue and push the
// governor into Shedding, quiet phases bring it back to Normal, and the
// transition count stays bounded at two per period instead of oscillating
// within one. Every shed reaches the producer as ErrOverloaded, and every
// offered batch is reported to the decision log exactly once.
func TestAIMDConvergence(t *testing.T) {
	const depth = 4
	m := &countMon{delay: 2 * time.Millisecond}
	gov := admission.New(admission.Config{Seed: 6})
	dl := &decLog{}
	p := New(m, Options{Depth: depth, Admission: gov, AdmissionLog: dl.log})
	_, done := collect(p)

	const periods = 6
	ts := int64(0)
	var overloaded int64
	ingest := func() {
		ts++
		err := p.Ingest(ts, nil)
		if errors.Is(err, admission.ErrOverloaded) {
			overloaded++
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for period := 0; period < periods; period++ {
		// Burst: 24 batches offered back to back against the slow consumer.
		// The queue fills, occupancy pins high and the governor must take
		// over.
		for i := 0; i < 24; i++ {
			ingest()
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		// Quiet: one batch per fully drained queue. Healthy drains must walk
		// the governor back out through the hysteresis.
		for i := 0; i < 12; i++ {
			ingest()
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := gov.Snapshot()
	if got := gov.State(); got != admission.Normal {
		t.Fatalf("state after final quiet phase = %v, want normal", got)
	}
	if snap.Transitions > 2*periods {
		t.Fatalf("state machine oscillated: %d transitions over %d periods (max 2 each)", snap.Transitions, periods)
	}
	if snap.Transitions < 2 {
		t.Fatalf("bursts never triggered shedding: %d transitions", snap.Transitions)
	}
	if snap.Admitted == 0 || snap.SheddingDrains == 0 {
		t.Fatalf("degenerate run: %+v", snap)
	}
	if overloaded != snap.ShedBatches || p.Dropped() != snap.ShedBatches {
		t.Fatalf("ErrOverloaded returned %d times, pipeline dropped %d, governor shed %d", overloaded, p.Dropped(), snap.ShedBatches)
	}
	if hw := p.HighWater(); hw < 1 || hw > depth {
		t.Fatalf("high water %d outside [1, %d]", hw, depth)
	}
	if n := len(dl.fates(t)); n != int(ts) {
		t.Fatalf("decision log holds %d batches, want every one of the %d offered", n, ts)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestAdmissionLifecycleRace is the -race proof for the governor inside a
// live pipeline: producers ingest against a data-sharded monitor (so every
// governed cycle is a barrier over the shard workers) while churners
// register, read and unregister queries through the barrier API and a
// reader hammers the governor's snapshot surface.
func TestAdmissionLifecycleRace(t *testing.T) {
	mon, err := shard.NewData(core.Options{Dims: 2, Window: window.Count(400), TargetCells: 32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	gov := admission.New(admission.Config{Seed: 17, CycleTarget: 50 * time.Microsecond, MemLimit: 1 << 40})
	p := New(mon, Options{Depth: 4, Admission: gov})
	_, done := collect(p)

	gen := stream.NewGenerator(stream.IND, 2, 31)
	if err := p.Ingest(0, gen.Batch(400, 0)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qg := stream.NewQueryGenerator(stream.FuncLinear, 2, seed)
			rng := rand.New(rand.NewSource(seed))
			var owned []core.QueryID
			for !stop.Load() {
				if len(owned) < 4 {
					id, err := p.Register(core.QuerySpec{F: qg.Next(), K: 1 + rng.Intn(6), Policy: core.SMA})
					if err != nil {
						errc <- err
						return
					}
					owned = append(owned, id)
					continue
				}
				j := rng.Intn(len(owned))
				if err := p.Unregister(owned[j]); err != nil {
					errc <- err
					return
				}
				owned = append(owned[:j], owned[j+1:]...)
			}
			for _, id := range owned {
				if err := p.Unregister(id); err != nil {
					errc <- err
					return
				}
			}
		}(int64(500 + c))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = gov.State()
			_ = gov.Snapshot()
			_ = p.Admission().State()
		}
	}()

	var overloaded int64
	for ts := int64(1); ts <= 120; ts++ {
		err := p.Ingest(ts, gen.Batch(40, ts))
		if errors.Is(err, admission.ErrOverloaded) {
			overloaded++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := gov.Snapshot()
	if snap.Admitted == 0 {
		t.Fatalf("no batches admitted: %+v", snap)
	}
	if overloaded != snap.ShedBatches {
		t.Fatalf("ErrOverloaded returned %d times, governor shed %d", overloaded, snap.ShedBatches)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}
