package main

import (
	"strings"
	"testing"
)

// rep builds a Report with matching environment fields so ns/op gating
// is active, from (name, ns, allocs) triples.
func rep(entries ...Result) Report {
	return Report{
		Schema: 1, Go: "go1.24", GOOS: "linux", GOARCH: "amd64",
		Benchmarks: entries,
	}
}

func r(name string, ns float64, allocs int64) Result {
	return Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

// TestCompareMissingBenchmarkFails pins the disappeared-benchmark gate: a
// benchmark present in the baseline but absent from the fresh run must
// fail the comparison, so a leg regression cannot hide behind a rename
// or a silently dropped suite entry.
func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := rep(r("A", 100, 0), r("ScoreBlockLeg/avx2", 50, 0))
	fresh := rep(r("A", 100, 0)) // the leg benchmark disappeared
	if compare(base, fresh, 0.15, nil) {
		t.Fatal("gate passed with a baseline benchmark missing from the run")
	}
	// Renaming is the same failure: the old name is missing even though a
	// new one showed up.
	renamed := rep(r("A", 100, 0), r("ScoreBlockLeg/avx2-v2", 500, 0))
	if compare(base, renamed, 0.15, nil) {
		t.Fatal("gate passed with a baseline benchmark renamed away")
	}
}

// TestCompareGatesRegressions covers the tolerance gate in both
// directions plus the allocs/op gate.
func TestCompareGatesRegressions(t *testing.T) {
	base := rep(r("A", 100, 2))
	if !compare(base, rep(r("A", 110, 2)), 0.15, nil) {
		t.Fatal("within-tolerance run failed the gate")
	}
	if compare(base, rep(r("A", 130, 2)), 0.15, nil) {
		t.Fatal("ns/op regression beyond tolerance passed the gate")
	}
	if compare(base, rep(r("A", 100, 9)), 0.15, nil) {
		t.Fatal("allocs/op regression passed the gate")
	}
	// An improvement never fails, however large.
	if !compare(base, rep(r("A", 10, 0)), 0.15, nil) {
		t.Fatal("improvement failed the gate")
	}
}

// TestCompareCrossEnvironment pins that a baseline from another
// environment downgrades ns/op to informational but keeps the
// hardware-independent gates: allocs and missing benchmarks still fail.
func TestCompareCrossEnvironment(t *testing.T) {
	base := rep(r("A", 100, 2), r("B", 100, 0))
	base.GOARCH = "arm64"
	if !compare(base, rep(r("A", 1000, 2), r("B", 100, 0)), 0.15, nil) {
		t.Fatal("cross-environment ns/op delta failed the gate")
	}
	if compare(base, rep(r("A", 100, 9), r("B", 100, 0)), 0.15, nil) {
		t.Fatal("cross-environment allocs regression passed the gate")
	}
	if compare(base, rep(r("A", 100, 2)), 0.15, nil) {
		t.Fatal("cross-environment missing benchmark passed the gate")
	}
}

// TestCheckSpeedup pins the ratio invariants: each pair's bound, and
// that a missing half of a pair is a failure rather than a skip.
func TestCheckSpeedup(t *testing.T) {
	pairs := []speedupPair{
		{"hw", "fast", "slow", 1.5},
	}
	if !checkSpeedup(rep(r("fast", 100, 0), r("slow", 160, 0)), pairs) {
		t.Fatal("1.6x speedup failed a 1.5x invariant")
	}
	if checkSpeedup(rep(r("fast", 100, 0), r("slow", 140, 0)), pairs) {
		t.Fatal("1.4x speedup passed a 1.5x invariant")
	}
	if checkSpeedup(rep(r("slow", 140, 0)), pairs) {
		t.Fatal("missing fast benchmark passed the invariant")
	}
}

// TestSpeedupInvariantsIncludeHardwarePairs checks the host-aware
// invariant set: the two 2x kernel pairs and the admission-overhead
// bound always, plus the 4x hardware-vs-scalar pairs on hosts with an
// assembly leg (CI runners always have one; a host without simply has
// nothing to bound).
func TestSpeedupInvariantsIncludeHardwarePairs(t *testing.T) {
	pairs := speedupInvariants()
	if len(pairs) < 3 {
		t.Fatalf("got %d invariant pairs, want at least the two 2x pairs plus the admission-overhead bound", len(pairs))
	}
	// The overhead bound rides the speedup machinery: ungoverned cycle
	// (slow) over governor fast path (fast) >= 50 caps the governor's
	// Normal-state calls at 2% of a steady-state cycle.
	if p := pairs[2]; p.fast != "AdmissionOverhead/fastpath" || p.slow != "AdmissionOverhead/ungoverned" || p.min != 50 {
		t.Fatalf("admission-overhead pair = %+v, want fastpath-vs-ungoverned at 50", p)
	}
	for _, p := range pairs[3:] {
		if p.min != 4 {
			t.Fatalf("hardware pair %q has bound %g, want 4", p.label, p.min)
		}
		if !strings.HasPrefix(p.fast, "ScoreBlockLeg/") && !strings.HasPrefix(p.fast, "MultiQueryKernelLeg/") {
			t.Fatalf("hardware pair %q gates unexpected benchmark %q", p.label, p.fast)
		}
		if !strings.HasSuffix(p.slow, "/scalar") {
			t.Fatalf("hardware pair %q bounds against %q, want the scalar leg", p.label, p.slow)
		}
	}
}

// TestLegCSV pins the per-leg artifact: one row per leg-series entry,
// speedups normalized to the scalar leg of the same series, non-leg
// entries excluded.
func TestLegCSV(t *testing.T) {
	report := rep(
		r("Fig14Grid/res=12/TMA", 999, 3),
		r("ScoreBlockLeg/avx2", 50, 0),
		r("ScoreBlockLeg/scalar", 200, 0),
		r("MultiQueryKernelLeg/avx2", 25, 0),
		r("MultiQueryKernelLeg/scalar", 100, 0),
	)
	got := legCSV(report)
	want := "series,leg,ns_per_op,mb_per_s,speedup_vs_scalar\n" +
		"ScoreBlockLeg,avx2,50.0,0.0,4.00\n" +
		"ScoreBlockLeg,scalar,200.0,0.0,1.00\n" +
		"MultiQueryKernelLeg,avx2,25.0,0.0,4.00\n" +
		"MultiQueryKernelLeg,scalar,100.0,0.0,1.00\n"
	if got != want {
		t.Fatalf("legCSV mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
