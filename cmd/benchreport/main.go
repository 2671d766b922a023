// Command benchreport runs the repository's hot-path benchmark suite
// (internal/benchsuite — the paper-figure per-cycle benchmark plus the
// batch-scoring, multi-query-kernel, query-index-probe, pub/sub
// per-cycle, influence-walk and top-k-computation microbenchmarks),
// emits a machine-readable report, and optionally gates against a
// committed baseline.
//
// Usage:
//
//	go run ./cmd/benchreport -out BENCH_11.json                 # refresh the baseline
//	go run ./cmd/benchreport -baseline BENCH_11.json -tol 0.15  # regression gate (CI)
//	go run ./cmd/benchreport -baseline BENCH_11.json -legcsv legs.csv
//
// The run covers the hot-path suite plus the per-leg kernel series
// (benchsuite.LegSuite): ScoreBlockLeg/<leg> and MultiQueryKernelLeg/<leg>
// for every kernel leg this host can execute. -legcsv writes that series as a comparison CSV with
// each leg's speedup over the scalar reference.
//
// Each benchmark runs -count times (default 3) and the fastest run is
// reported — the minimum is the least noisy statistic for a regression
// gate on shared hardware. The gate fails (exit 1) when a benchmark's
// ns/op or allocs/op exceeds the baseline by more than the tolerance, OR
// when a benchmark present in the baseline is missing from the fresh run
// — a leg whose benchmark disappears (renamed, dropped from the suite,
// no longer supported on the runner) must fail loudly, not vanish from
// the report. Improvements beyond the tolerance are reported so the
// baseline can be refreshed (the committed file is the trajectory, not a
// ratchet).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"topkmon/internal/benchsuite"
	"topkmon/internal/simd"
)

// Result is one benchmark's reported figures.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// MBPerS is reported for benchmarks that declare a processed-bytes
	// size (the scoring kernels and the influence walk); 0 otherwise.
	MBPerS float64 `json:"mb_per_s"`
}

// Report is the BENCH_*.json schema.
type Report struct {
	Schema     int      `json:"schema"`
	Go         string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchtime  string   `json:"benchtime"`
	Count      int      `json:"count"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "", "write the report JSON to this path ('-' for stdout)")
		baseline  = flag.String("baseline", "", "compare against this committed report and fail on regressions")
		tol       = flag.Float64("tol", 0.15, "relative tolerance of the regression gate")
		benchtime = flag.Duration("benchtime", 300*time.Millisecond, "per-run benchmark time")
		count     = flag.Int("count", 3, "runs per benchmark; the fastest is reported")
		legcsv    = flag.String("legcsv", "", "write the per-leg kernel comparison CSV to this path")
	)
	testing.Init()
	flag.Parse()
	if *out == "" && *baseline == "" {
		*out = "-"
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}

	rep := Report{
		Schema:    1,
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime.String(),
		Count:     *count,
	}
	for _, bench := range append(benchsuite.Suite(), benchsuite.LegSuite()...) {
		fmt.Fprintf(os.Stderr, "running %-32s", bench.Name)
		res := runBest(bench, *count)
		fmt.Fprintf(os.Stderr, " %12.0f ns/op %6d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
		rep.Benchmarks = append(rep.Benchmarks, res)
	}

	if *out != "" {
		if err := writeReport(rep, *out); err != nil {
			fatal(err)
		}
	}
	if *legcsv != "" {
		if err := os.WriteFile(*legcsv, []byte(legCSV(rep)), 0o644); err != nil {
			fatal(err)
		}
	}
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fatal(err)
		}
		if !compare(base, rep, *tol, speedupInvariants()) {
			os.Exit(1)
		}
	}
}

// runBest executes one benchmark count times and keeps the fastest run
// (allocs are taken from the same run; they are deterministic up to map
// growth, so any run would do).
func runBest(bench benchsuite.Bench, count int) Result {
	best := Result{Name: bench.Name}
	for i := 0; i < count; i++ {
		r := testing.Benchmark(bench.F)
		if r.N == 0 {
			continue
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if best.NsPerOp == 0 || ns < best.NsPerOp {
			best.NsPerOp = ns
			best.AllocsPerOp = r.AllocsPerOp()
			best.BytesPerOp = r.AllocedBytesPerOp()
			if r.Bytes > 0 && r.T > 0 {
				best.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
			}
		}
	}
	return best
}

// compare gates rep against base. allocs/op is hardware-independent and
// always gated; ns/op is gated only when the baseline was produced on the
// same goos/goarch/Go version (absolute wall times from a different
// environment would fail every benchmark for reasons unrelated to the
// code — there the deltas are reported informationally and the
// hardware-independent checks below carry the gate). The given speedup
// invariants are always enforced: each is a ratio of two same-run
// measurements, so the bound does not depend on the host. A benchmark
// present in the baseline but absent from this run fails the gate — a
// disappeared benchmark is how a leg regression would hide behind a
// rename. Returns false when anything regresses.
func compare(base, rep Report, tol float64, pairs []speedupPair) bool {
	byName := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	gateNs := base.GOOS == rep.GOOS && base.GOARCH == rep.GOARCH && base.Go == rep.Go
	if !gateNs {
		fmt.Printf("NOTE      baseline environment %s/%s %s differs from this host (%s/%s %s): ns/op deltas are informational, allocs/op and the speedup invariant still gate\n",
			base.GOOS, base.GOARCH, base.Go, rep.GOOS, rep.GOARCH, rep.Go)
	}
	ok := true
	for _, r := range rep.Benchmarks {
		b, found := byName[r.Name]
		if !found {
			fmt.Printf("NEW       %-28s %12.0f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		nsRatio := r.NsPerOp / b.NsPerOp
		switch {
		case nsRatio > 1+tol && gateNs:
			fmt.Printf("REGRESSED %-28s %12.0f ns/op vs %12.0f baseline (%+.1f%%)\n",
				r.Name, r.NsPerOp, b.NsPerOp, (nsRatio-1)*100)
			ok = false
		case nsRatio < 1-tol:
			fmt.Printf("IMPROVED  %-28s %12.0f ns/op vs %12.0f baseline (%+.1f%%) — consider refreshing the baseline\n",
				r.Name, r.NsPerOp, b.NsPerOp, (nsRatio-1)*100)
		default:
			fmt.Printf("OK        %-28s %12.0f ns/op vs %12.0f baseline (%+.1f%%)\n",
				r.Name, r.NsPerOp, b.NsPerOp, (nsRatio-1)*100)
		}
		// Allocations are near-deterministic; a small absolute slack keeps
		// map-growth jitter from flapping the gate at tiny counts.
		if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol)+2 {
			fmt.Printf("REGRESSED %-28s %6d allocs/op vs %6d baseline\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
			ok = false
		}
	}
	if !checkSpeedup(rep, pairs) {
		ok = false
	}
	for _, b := range base.Benchmarks {
		seen := false
		for _, r := range rep.Benchmarks {
			if r.Name == b.Name {
				seen = true
				break
			}
		}
		if !seen {
			fmt.Printf("MISSING   %-28s present in baseline but not in this run\n", b.Name)
			ok = false
		}
	}
	if ok {
		fmt.Println("benchreport: gate passed")
	} else {
		fmt.Println("benchreport: gate FAILED")
	}
	return ok
}

// speedupPair is one hardware-independent ratio invariant: the fast
// benchmark must beat the slow one from the same run by >= min.
type speedupPair struct {
	label      string
	fast, slow string
	min        float64
}

// speedupInvariants returns the ratio invariants for this host: the
// always-on batch-vs-pointwise and multi-vs-perquery >= 2x pairs, plus —
// on hosts with an assembly leg — a >= 4x hardware-vs-scalar bound on
// both kernel series (BENCH_10 measured 7.3x on ScoreBlockLeg and 11.3x
// on MultiQueryKernelLeg with AVX2). The per-leg pairs reference the
// host's own leg name (avx2 or neon), so a silently fallen-back hardware
// leg surfaces as a missing benchmark, not a soft ratio of the scalar
// leg against itself.
func speedupInvariants() []speedupPair {
	pairs := []speedupPair{
		{"ScoreBlock batch-scoring", "ScoreBlock/kernel-d4", "ScoreBlock/pointwise-d4", 2},
		{"MultiQueryKernel multi-query", "MultiQueryKernel/multi-d4", "MultiQueryKernel/perquery-d4", 2},
		// cycle/fastpath >= 50 bounds the governor's Normal-state calls at
		// under 2% of a steady-state ingest cycle — the free-when-idle
		// claim, expressed as a two-orders-of-magnitude ratio so scheduler
		// jitter on a shared runner cannot flap it the way a governed-vs-
		// ungoverned A/B of two full-cycle timings would.
		{"AdmissionOverhead fast path (<=2% of ungoverned cycle)", "AdmissionOverhead/fastpath", "AdmissionOverhead/ungoverned", 50},
	}
	if hw, ok := simd.HardwareLeg(); ok {
		pairs = append(pairs,
			speedupPair{"ScoreBlockLeg hardware-vs-scalar", "ScoreBlockLeg/" + hw.String(), "ScoreBlockLeg/scalar", 4},
			speedupPair{"MultiQueryKernelLeg hardware-vs-scalar", "MultiQueryKernelLeg/" + hw.String(), "MultiQueryKernelLeg/scalar", 4},
		)
	}
	return pairs
}

// checkSpeedup enforces the speedup invariants on the current run.
func checkSpeedup(rep Report, pairs []speedupPair) bool {
	byName := make(map[string]float64, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		byName[r.Name] = r.NsPerOp
	}
	ok := true
	for _, p := range pairs {
		fast, slow := byName[p.fast], byName[p.slow]
		if fast == 0 || slow == 0 {
			fmt.Printf("REGRESSED %s speedup invariant: %s/%s pair missing from this run\n", p.label, p.fast, p.slow)
			ok = false
			continue
		}
		speedup := slow / fast
		if speedup < p.min {
			fmt.Printf("REGRESSED %s speedup %.2fx, invariant requires >= %gx\n", p.label, speedup, p.min)
			ok = false
			continue
		}
		fmt.Printf("OK        %s speedup %.1fx (>= %gx invariant)\n", p.label, speedup, p.min)
	}
	return ok
}

// legCSV renders the per-leg kernel series of rep as a comparison CSV:
// one row per (series, leg) with its throughput and its speedup over the
// scalar reference of the same series. Rows keep the report's order
// (hardware leg first).
func legCSV(rep Report) string {
	scalarNs := map[string]float64{}
	for _, r := range rep.Benchmarks {
		if series, leg, ok := splitLegBench(r.Name); ok && leg == "scalar" {
			scalarNs[series] = r.NsPerOp
		}
	}
	var b strings.Builder
	b.WriteString("series,leg,ns_per_op,mb_per_s,speedup_vs_scalar\n")
	for _, r := range rep.Benchmarks {
		series, leg, ok := splitLegBench(r.Name)
		if !ok {
			continue
		}
		speedup := 0.0
		if s := scalarNs[series]; s > 0 && r.NsPerOp > 0 {
			speedup = s / r.NsPerOp
		}
		fmt.Fprintf(&b, "%s,%s,%.1f,%.1f,%.2f\n", series, leg, r.NsPerOp, r.MBPerS, speedup)
	}
	return b.String()
}

// splitLegBench recognizes per-leg series entries (SomeSeriesLeg/<leg>).
func splitLegBench(name string) (series, leg string, ok bool) {
	series, leg, found := strings.Cut(name, "/")
	if !found || !strings.HasSuffix(series, "Leg") {
		return "", "", false
	}
	return series, leg, true
}

func writeReport(rep Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(2)
}
