package work

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// small is the 1/50-scale variant the tests run: a few seconds for all
// four workloads, no timing assertions.
func small(w Workload) Workload { return w.Scaled(50) }

func runSmall(t *testing.T, w Workload) *Outcome {
	t.Helper()
	out, err := Run(small(w), Config{Seed: 1, Seconds: RunSeconds, Setups: 2, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return out
}

func TestWorkloadsRunCheckAndRepeat(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := runSmall(t, w), runSmall(t, w)
			if a.Failed != 0 {
				t.Errorf("%d of %d operations failed: %s", a.Failed, a.Attempted, a.FirstError)
			}
			if a.Attempted < int64(a.Cycles) {
				t.Errorf("attempted %d operations in %d cycles", a.Attempted, a.Cycles)
			}
			rec, err := NewRecord(a, RunSeconds, false, EndToEnd, a.Metrics)
			if err != nil {
				t.Fatalf("end-to-end metrics do not match the declared set: %v", err)
			}
			for name, v := range rec.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, v.Value)
				}
			}
			// Every count the program makes must repeat exactly.
			other, err := NewRecord(b, RunSeconds, false, EndToEnd, b.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec.Exact, other.Exact) {
				t.Errorf("counts differ between two runs of seed 1:\n%v\n%v", rec.Exact, other.Exact)
			}
			if w.Kind == Paced && a.Deliveries == 0 {
				t.Errorf("the paced workload delivered nothing")
			}
		})
	}
}

func TestCheckCatchesAWrongResult(t *testing.T) {
	// The brute-force scan must disagree with the monitor once the model
	// is made wrong, or the correctness check checks nothing.
	w := small(Workloads[0])
	in := NewStream(w, 1, 1)
	inst, _, err := w.setup(in, Config{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	out := &Outcome{}
	chk := &checker{rng: rand.New(rand.NewSource(1))}
	out.check(chk, inst.mon, in.live, inst.queries)
	if out.Failed != 0 {
		t.Fatalf("check fails on a correct model: %s", out.FirstError)
	}
	in.live.live = in.live.live[:len(in.live.live)/2]
	out.check(chk, inst.mon, in.live, inst.queries)
	if out.Failed == 0 {
		t.Errorf("check passes although half the live tuples are missing from the model")
	}
}

func TestDeflateRemovesASlowPeriod(t *testing.T) {
	// Twelve segments of the same work, one expensive cycle in each; the
	// host runs the middle six 30% slower. Deflated, the span must read
	// as if it had not.
	span := func(slow bool) []segment {
		var segs []segment
		for k := 0; k < 12; k++ {
			f := 1.0
			if slow && k >= 3 && k < 9 {
				f = 1.3
			}
			s := segment{cycles: 10, tuples: 1000}
			for c := 0; c < 10; c++ {
				d := time.Duration(float64(1000+10*c) * f)
				if c == 7 {
					d *= 20
				}
				s.latency = append(s.latency, d)
				s.busy += d
			}
			s.cpu = s.busy
			segs = append(segs, s)
		}
		return segs
	}
	quiet, slowed := &Outcome{Metrics: map[string]float64{}}, &Outcome{Metrics: map[string]float64{}}
	quiet.timeMetrics(span(false), true)
	slowed.timeMetrics(span(true), true)
	for name, want := range quiet.Metrics {
		if got := slowed.Metrics[name]; math.Abs(got-want) > 0.002*want {
			t.Errorf("%s reads %v with a slow period, %v without", name, got, want)
		}
	}
	if len(quiet.Metrics) != 4 {
		t.Errorf("time metrics %v, want four", quiet.Metrics)
	}
}

// benchmarkJSON mirrors the keys of /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != RunSeconds {
		t.Errorf("run_seconds is %d, the cycle counts are sized for %d", b.RunSeconds, RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths is %v, want [bench]", b.Paths)
	}

	var declared, tabled []Workload
	for _, w := range b.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters; the driver takes one line of at most 200", w.Name, len(w.Why))
		}
		declared = append(declared, Workload{Name: w.Name, Why: w.Why})
	}
	for _, w := range Workloads {
		tabled = append(tabled, Workload{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(declared, tabled) {
		t.Errorf("workloads differ:\nBENCHMARK.json %v\nwork.Workloads %v", declared, tabled)
	}

	var e2e, layers []Metric
	for _, m := range b.EndToEnd {
		e2e = append(e2e, Metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, Metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\nwork.EndToEnd %v", e2e, EndToEnd)
	}
	var want []Metric
	for _, m := range PerLayer {
		m.Exact = false
		want = append(want, m)
	}
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\nwork.PerLayer %v", layers, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	q1, q2, q3 := Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4)
	q1, q2, q3 = Quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ns []float64, transcript string) string {
		path := filepath.Join(dir, name)
		for i, v := range ns {
			rec := Record{Workload: "topk-sma", Seed: int64(i), Seconds: RunSeconds,
				Line:  Line{Correct: true, Attempted: 1, Metrics: map[string]Value{"ns_per_tuple": {v, "ns"}}},
				Exact: map[string]string{"transcript": transcript}}
			if err := Append(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", []float64{100, 101, 102, 103}, "7")
	var sb strings.Builder
	if err := Compare(&sb, base, write("same.json", []float64{101, 102, 100, 104}, "7")); err != nil {
		t.Errorf("two runs of the same program differ: %v\n%s", err, sb.String())
	}
	if err := Compare(&sb, base, write("slow.json", []float64{150, 151, 152, 153}, "7")); err == nil {
		t.Errorf("a 50%% slowdown is within the bound")
	}
	if err := Compare(&sb, base, write("noisy.json", []float64{60, 100, 140, 180}, "7")); err == nil || !strings.Contains(sb.String(), "unresolved") {
		t.Errorf("a spread wider than the bound is not reported as unresolved: %v", err)
	}
	if err := Compare(&sb, base, write("count.json", []float64{100, 101, 102, 103}, "8")); err == nil {
		t.Errorf("a differing transcript hash is accepted")
	}
}
