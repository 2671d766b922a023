package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/pipeline"
	"topkmon/internal/stack"
	"topkmon/internal/stream"
)

// This file is the overload differential mode: it drives a governed
// pipeline into sustained overload with a seeded injector, records every
// admission decision, then replays the *admitted subsequence* through an
// ungoverned reference monitor of the same family and demands
// byte-identical transcripts. That is the correctness contract of
// admission control: shedding bounds staleness, it never changes what the
// admitted stream computes.

// OverloadCycle is one injected cycle: the arrival burst size and (in
// update-stream scenarios) the explicit deletions it carries.
type OverloadCycle struct {
	Arrivals  int
	Deletions []uint64
}

// OverloadRun is a seeded overload workload: a scenario shape (stream
// mode, window, prefill, initial query set — its churn schedule is
// unused), a sustained burst phase at roughly ten times the calm arrival
// rate, and a calm phase in which the governor must recover.
type OverloadRun struct {
	Base  Scenario
	Burst []OverloadCycle
	Calm  []OverloadCycle
}

// GenOverload derives an overload run from a seed. Deletions are drawn
// without replacement from the prefill tuples: the prefill is ingested by
// a fresh Normal-state governor and therefore always admitted, so a
// deletion can never target a tuple its run shed — whether the *carrying*
// batch is shed is exactly what the differential replays faithfully.
func GenOverload(seed int64) OverloadRun {
	base := GenScenario(seed)
	base.Cycles = nil
	rng := rand.New(rand.NewSource(seed ^ 0x6c6f6164)) // "load"
	run := OverloadRun{Base: base}
	for c, n := 0, 28+rng.Intn(12); c < n; c++ {
		run.Burst = append(run.Burst, OverloadCycle{Arrivals: 10 * (20 + rng.Intn(20))})
	}
	for c, n := 0, 12+rng.Intn(6); c < n; c++ {
		run.Calm = append(run.Calm, OverloadCycle{Arrivals: 3 + rng.Intn(8)})
	}
	if base.Mode == core.UpdateStream {
		perm := rng.Perm(base.Prefill)
		i := 0
		for c := range run.Burst {
			for n := rng.Intn(3); n > 0 && i < len(perm); n-- {
				run.Burst[c].Deletions = append(run.Burst[c].Deletions, uint64(perm[i]))
				i++
			}
		}
	}
	return run
}

// OverloadConfig tunes a governed overload replay. A governor Shed
// surfaces as ErrOverloaded, which the driver treats as the shed it is
// (the decision log already recorded it); a full queue blocks, so every
// lost batch is governor-attributed.
type OverloadConfig struct {
	// Layout is the family under test: the inner layers (shards and
	// partitioning) of both the governed and the reference run. The
	// governed run puts its own pipeline in front, so Layout names none.
	Layout stack.Config
	// Governor is the fresh governor fronting the governed run.
	Governor *admission.Governor
	// Depth bounds the pipeline queue.
	Depth int
	// ApplyDelay artificially slows every apply in the governed run — the
	// "slow consumer" half of the overload injector. The reference run is
	// never slowed; slowness must not be observable in the transcript.
	ApplyDelay time.Duration
}

// OverloadReport is the observable outcome of one governed overload run.
type OverloadReport struct {
	// Snapshot is the governor's closing snapshot: final state, shed and
	// stripped counters, staleness figures.
	Snapshot admission.Snapshot
	// Decisions is the fate of every ingested timestamp.
	Decisions map[int64]admission.Decision
	// DroppedBatches and DroppedTuples are the pipeline's loss counters.
	DroppedBatches, DroppedTuples int64
}

// slowMonitor delays every cycle apply, simulating an engine that cannot
// keep up with the arrival rate.
type slowMonitor struct {
	core.StreamMonitor
	delay time.Duration
}

func (s *slowMonitor) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.StreamMonitor.Step(now, arrivals)
}

func (s *slowMonitor) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.StreamMonitor.StepUpdate(now, arrivals, deletions)
}

// ReplayOverload runs one governed overload replay and verifies the
// admitted-subsequence contract. The governed run's decisions depend on
// real queue occupancy and wall-clock apply latency — they are not
// reproducible across machines — but whatever they were, the reference
// monitor fed exactly the admitted subsequence (full batch on Admit,
// arrivals stripped on AdmitDeletions, skipped on Shed) must produce a
// byte-identical transcript. A non-empty error describes the first
// divergence or driver failure.
func ReplayOverload(run OverloadRun, cfg OverloadConfig) (OverloadReport, error) {
	rep := OverloadReport{Decisions: make(map[int64]admission.Decision)}
	s := run.Base

	layout := cfg.Layout
	layout.Engine = s.Options()
	base, err := stack.Build(layout, nil)
	if err != nil {
		return rep, err
	}
	gov := cfg.Governor
	// enqueueBatch runs on this goroutine only, so the decision map needs
	// no lock; each batch's decision is logged exactly once.
	p := pipeline.New(&slowMonitor{StreamMonitor: base.Mon, delay: cfg.ApplyDelay}, pipeline.Options{
		Depth:        cfg.Depth,
		Admission:    gov,
		AdmissionLog: func(now int64, d admission.Decision) { rep.Decisions[now] = d },
	})

	var tr Transcript
	var collected [][]core.Update
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for batch := range p.Updates() {
			collected = append(collected, batch)
		}
	}()

	gen := stream.NewGenerator(s.Dist, s.Dims, s.Seed+2)
	ingest := func(now int64, arrivals []*stream.Tuple, deletions []uint64) error {
		var err error
		if s.Mode == core.UpdateStream {
			err = p.IngestUpdate(now, arrivals, deletions)
		} else {
			err = p.Ingest(now, arrivals)
		}
		if errors.Is(err, admission.ErrOverloaded) {
			return nil // the decision log already records the shed
		}
		return err
	}

	if err := ingest(0, gen.Batch(s.Prefill, 0), nil); err != nil {
		return rep, fmt.Errorf("prefill: %w", err)
	}
	for i, spec := range s.Initial {
		id, err := p.Register(spec)
		if err != nil {
			return rep, fmt.Errorf("register %d: %w", i, err)
		}
		if id != core.QueryID(i) {
			return rep, fmt.Errorf("register %d: got id %d", i, id)
		}
	}

	now := int64(0)
	for _, oc := range run.Burst {
		now++
		if err := ingest(now, gen.Batch(oc.Arrivals, now), oc.Deletions); err != nil {
			return rep, fmt.Errorf("burst cycle t=%d: %w", now, err)
		}
	}
	for _, oc := range run.Calm {
		now++
		if err := ingest(now, gen.Batch(oc.Arrivals, now), oc.Deletions); err != nil {
			return rep, fmt.Errorf("calm cycle t=%d: %w", now, err)
		}
		// Each calm cycle drains fully before the next: recovery — the
		// exit half of the state machine — rides drain observations.
		if err := p.Flush(); err != nil {
			return rep, fmt.Errorf("calm flush t=%d: %w", now, err)
		}
	}
	if err := p.Flush(); err != nil {
		return rep, fmt.Errorf("final flush: %w", err)
	}

	for i := range s.Initial {
		res, err := p.Result(core.QueryID(i))
		if err != nil {
			return rep, fmt.Errorf("final result q%d: %w", i, err)
		}
		tr.Finals = append(tr.Finals, fmt.Sprintf("q%d [%s]", i, renderEntries(res)))
	}
	tr.NumPoints = p.NumPoints()
	tr.NumQueries = p.NumQueries()
	rep.Snapshot = gov.Snapshot()
	rep.DroppedBatches = p.Dropped()
	rep.DroppedTuples = p.DroppedTuples()
	if err := p.Close(); err != nil {
		return rep, fmt.Errorf("close: %w", err)
	}
	<-consumerDone
	for _, batch := range collected {
		for _, u := range batch {
			tr.Updates = append(tr.Updates, renderUpdate(u))
		}
	}

	// Reference run: same family, no pipeline, no governor, no delay, fed
	// the admitted subsequence verbatim.
	refSt, err := stack.Build(layout, nil)
	if err != nil {
		return rep, err
	}
	ref := refSt.Mon
	defer ref.Close()
	var refTr Transcript
	rgen := stream.NewGenerator(s.Dist, s.Dims, s.Seed+2)
	refStep := func(now int64, arrivals []*stream.Tuple, deletions []uint64) error {
		var updates []core.Update
		var err error
		if s.Mode == core.UpdateStream {
			updates, err = ref.StepUpdate(now, arrivals, deletions)
		} else {
			updates, err = ref.Step(now, arrivals)
		}
		if err != nil {
			return err
		}
		for _, u := range updates {
			refTr.Updates = append(refTr.Updates, renderUpdate(u))
		}
		return nil
	}
	apply := func(now int64, arrivals []*stream.Tuple, deletions []uint64) error {
		dec, ok := rep.Decisions[now]
		if !ok {
			return fmt.Errorf("no recorded admission decision")
		}
		switch dec {
		case admission.Shed:
			return nil
		case admission.AdmitDeletions:
			return refStep(now, nil, deletions)
		default:
			return refStep(now, arrivals, deletions)
		}
	}

	if err := apply(0, rgen.Batch(s.Prefill, 0), nil); err != nil {
		return rep, fmt.Errorf("reference prefill: %w", err)
	}
	for i, spec := range s.Initial {
		if _, err := ref.Register(spec); err != nil {
			return rep, fmt.Errorf("reference register %d: %w", i, err)
		}
	}
	now = 0
	for _, phase := range [][]OverloadCycle{run.Burst, run.Calm} {
		for _, oc := range phase {
			now++
			// Generate unconditionally: tuple ids must stay aligned with
			// the governed run even across shed cycles.
			batch := rgen.Batch(oc.Arrivals, now)
			if err := apply(now, batch, oc.Deletions); err != nil {
				return rep, fmt.Errorf("reference cycle t=%d: %w", now, err)
			}
		}
	}
	for i := range s.Initial {
		res, err := ref.Result(core.QueryID(i))
		if err != nil {
			return rep, fmt.Errorf("reference final result q%d: %w", i, err)
		}
		refTr.Finals = append(refTr.Finals, fmt.Sprintf("q%d [%s]", i, renderEntries(res)))
	}
	refTr.NumPoints = ref.NumPoints()
	refTr.NumQueries = ref.NumQueries()

	if d := tr.Diff(refTr); d != "" {
		return rep, fmt.Errorf("governed transcript diverged from the admitted-subsequence reference (%s): %s", s, d)
	}
	return rep, nil
}
