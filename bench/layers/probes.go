package main

import (
	"math/rand"
	"time"

	"topkmon/bench/load"
	"topkmon/bench/work"
	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/qindex"
	"topkmon/internal/simd"
	"topkmon/internal/skyband"
	"topkmon/internal/stream"
	"topkmon/internal/topk"
	"topkmon/internal/window"
)

// probes times the leaf layers directly, sized to the workload: its window,
// batch size, grid mode and query set. One timer read bounds a batch of
// operations; a figure is the median over the batches, per operation, so
// that a page fault or a collection in one batch does not carry it.
func probes(w work.Workload, seed int64, cycles int, v map[string]float64) {
	res := grid.ResolutionForTargetCells(load.Dims, core.DefaultTargetCells)
	const batches = 50

	// One generator fills both grids and feeds both probes, so that no two
	// tuples in a grid share an id: a Random-mode cell finds a tuple by it.
	gen := load.NewGen(seed + 6)
	fifo, resident := filledGrid(w, gen, res, grid.FIFO)
	var ins, rem []time.Duration
	removed := true
	for b := 0; b < batches; b++ {
		batch := gen.Batch(w.Rate, int64(b))
		t0 := time.Now()
		for _, t := range batch {
			fifo.Insert(t)
		}
		t1 := time.Now()
		for _, t := range resident[:w.Rate] {
			removed = fifo.Remove(t) && removed
		}
		rem = append(rem, time.Since(t1))
		ins = append(ins, t1.Sub(t0))
		resident = append(resident[w.Rate:], batch...)
	}
	v["grid.insert_ns_per_tuple"] = perItem(ins, w.Rate)
	v["grid.remove_fifo_ns_per_tuple"] = perItem(rem, w.Rate)

	random, resident := filledGrid(w, gen, res, grid.Random)
	pick := rand.New(rand.NewSource(seed + 8))
	rem = rem[:0]
	victims := make([]*stream.Tuple, w.Rate)
	for b := 0; b < batches; b++ {
		for i := range victims {
			j := pick.Intn(len(resident))
			victims[i] = resident[j]
			resident[j] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
		}
		t0 := time.Now()
		for _, t := range victims {
			removed = random.Remove(t) && removed
		}
		rem = append(rem, time.Since(t0))
		batch := gen.Batch(w.Rate, int64(b))
		for _, t := range batch {
			random.Insert(t)
		}
		resident = append(resident, batch...)
	}
	v["grid.remove_random_ns_per_tuple"] = perItem(rem, w.Rate)
	if !removed {
		panic("grid probe: Remove did not find a resident tuple")
	}

	win := window.New(window.Count(w.Window))
	gen = load.NewGen(seed + 9)
	for ts := 0; ts*w.Rate < w.Window; ts++ {
		for _, t := range gen.Batch(w.Rate, int64(ts)) {
			win.Push(t)
		}
	}
	var expired []*stream.Tuple
	var push []time.Duration
	for b := 0; b < batches; b++ {
		ts := int64(w.Window/w.Rate + b + 1)
		batch := gen.Batch(w.Rate, ts)
		t0 := time.Now()
		for _, t := range batch {
			win.Push(t)
		}
		expired = win.ExpireAppend(ts, expired[:0])
		push = append(push, time.Since(t0))
	}
	v["window.push_expire_ns_per_tuple"] = perItem(push, w.Rate)

	specs := work.NewStream(w, seed, cycles).Specs
	ix := qindex.New(load.Dims, fifo)
	t0 := time.Now()
	for i, s := range specs {
		// A threshold subscription is indexed under its threshold; a
		// top-k query under its kth score, for which 0.9 of the
		// function's maximum stands in here.
		bound := 0.9 * geom.MaxScore(s.F, geom.UnitRect(load.Dims))
		if s.Threshold != nil {
			bound = *s.Threshold
		}
		if err := ix.Add(qindex.QueryID(i+1), s.F, bound); err != nil {
			panic(err) // ids are distinct: only a bug can get here
		}
	}
	v["qindex.add_us_per_query"] = work.Micros(time.Since(t0)) / float64(len(specs))
	entries := 0
	t0 = time.Now()
	for pass := 0; pass < 2; pass++ { // the first pass builds the per-cell caches
		if pass == 1 {
			t0 = time.Now()
		}
		for c := 0; c < fifo.NumCells(); c++ {
			entries += len(ix.CellEntries(c))
		}
	}
	v["qindex.probe_ns_per_cell"] = float64(time.Since(t0)) / float64(fifo.NumCells())
	v["qindex.clusters"] = float64(ix.NumClusters())
	v["qindex.memory_bytes_per_query"] = float64(ix.MemoryBytes()) / float64(len(specs))
	sink += entries

	const points, rows, reps = 4096, 64, 200
	rng := rand.New(rand.NewSource(seed + 10))
	coords := make([]float64, points*load.Dims)
	for i := range coords {
		coords[i] = rng.Float64()
	}
	weights := make([]float64, rows*load.Dims)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	dst := make([]float64, rows*points)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		simd.DotBlockInto(dst[:points], coords, weights[:load.Dims])
	}
	v["simd.dot_ns_per_point"] = float64(time.Since(t0)) / (reps * points)
	t0 = time.Now()
	for r := 0; r < reps/10; r++ {
		simd.DotBlockMulti(dst, coords, weights, load.Dims)
	}
	v["simd.dot_multi_ns_per_point_query"] = float64(time.Since(t0)) / (reps / 10 * points * rows)
	f := geom.NewLinear(weights[:load.Dims]...)
	var acc float64
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for p := 0; p < points; p++ {
			acc += f.Score(coords[p*load.Dims : (p+1)*load.Dims])
		}
	}
	v["geom.score_ns"] = float64(time.Since(t0)) / (reps * points)
	sink += int(acc + dst[0])

	g := fifo
	if w.Kind == work.Churn {
		g = random
	}
	searcher := topk.NewSearcher(g)
	fns := specs[:min(64, len(specs))]
	cells := 0
	t0 = time.Now()
	for _, s := range fns {
		cells += len(searcher.TopK(topk.Request{F: s.F, K: work.K}).Processed)
	}
	v["topk.compute_us_k20"] = work.Micros(time.Since(t0)) / float64(len(fns))
	v["topk.cells_per_compute"] = float64(cells) / float64(len(fns))

	sky := skyband.New(work.K)
	gen = load.NewGen(seed + 11)
	const skyBatch = 16
	batch := make([]skyband.Entry, skyBatch)
	var insert []time.Duration
	for b := 0; b < 40*batches; b++ {
		for i, t := range gen.Batch(skyBatch, int64(b)) {
			batch[i] = skyband.Entry{T: t, Score: f.Score(t.Vec)}
		}
		t0 := time.Now()
		sky.InsertBatch(batch)
		insert = append(insert, time.Since(t0))
	}
	v["skyband.insert_ns"] = perItem(insert, skyBatch)

	gov := admission.New(admission.Config{})
	const pairs = 200000
	t0 = time.Now()
	for i := 0; i < pairs; i++ {
		if gov.Admit(0, work.PacedDepth, w.Rate, 0) != admission.Admit {
			panic("admission: governor left Normal on an empty queue")
		}
		gov.ObserveDrain(0, work.PacedDepth, int64(time.Millisecond))
	}
	v["admission.fastpath_ns"] = float64(time.Since(t0)) / pairs
}

// perItem is the median batch duration over the batch size.
func perItem(batches []time.Duration, items int) float64 {
	return float64(work.Percentile(batches, 50)) / float64(items)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// filledGrid returns a grid of the given mode holding a window of tuples
// from gen, which are returned oldest first.
func filledGrid(w work.Workload, gen *load.Gen, res int, mode grid.Mode) (*grid.Grid, []*stream.Tuple) {
	g := grid.New(load.Dims, res, mode)
	resident := make([]*stream.Tuple, 0, w.Window+w.Rate)
	for len(resident) < w.Window {
		for _, t := range gen.Batch(w.Rate, 0) {
			g.Insert(t)
			resident = append(resident, t)
		}
	}
	return g, resident
}
