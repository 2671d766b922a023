package work

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Quartiles returns the first, second and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method); it
// needs two values or more.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1)-j*4) / 4
		return s[j-1]*(1-delta) + s[j]*delta
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := Quartiles(xs)
	if med := Median(xs); med != 0 {
		return (q3 - q1) / math.Abs(med)
	}
	return 0
}

// side groups one result file's runs by pass, workload and metric.
type side struct {
	values map[string][]float64         // "pass workload metric"
	exact  map[string]map[string]string // "pass workload seed seconds" -> counts
}

func loadSide(path string) (*side, error) {
	f, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	s := &side{values: map[string][]float64{}, exact: map[string]map[string]string{}}
	for _, r := range f.Runs {
		for name, v := range r.Metrics {
			k := key(r.Trace, r.Workload, name)
			s.values[k] = append(s.values[k], v.Value)
		}
		counts := map[string]string{"correct": fmt.Sprint(r.Correct)}
		for name, v := range r.Exact {
			counts[name] = v
		}
		for _, d := range PerLayer {
			if v, ok := r.Metrics[d.Name]; ok && d.Exact && r.Trace {
				counts[d.Name] = fmt.Sprint(v.Value)
			}
		}
		s.exact[fmt.Sprintf("%s seed %d seconds %g", key(r.Trace, r.Workload, ""), r.Seed, r.Seconds)] = counts
	}
	return s, nil
}

func key(trace bool, workload, metric string) string {
	pass := "end-to-end"
	if trace {
		pass = "per-layer"
	}
	return pass + " " + workload + " " + metric
}

// Compare prints, per workload and metric, the medians of the two result
// files, B's difference from A as a share of A, and the bound. An
// end-to-end metric whose run-to-run spread on either side exceeds its
// bound is "unresolved"; one whose medians differ by more than the bound is
// "DIFFERS". Counts the program makes must be identical for runs of the
// same workload, seed and length. It returns an error if any end-to-end
// metric differs or is unresolved, or any count differs.
func Compare(out io.Writer, pathA, pathB string) error {
	a, err := loadSide(pathA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(out, "%-63s %-8s %13s %13s %8s %6s %7s %7s\n",
		"pass workload metric", "unit", "A median", "B median", "B vs A", "bound", "A sprd", "B sprd")
	for _, pass := range []struct {
		trace bool
		defs  []Metric
	}{{false, EndToEnd}, {true, PerLayer}} {
		for _, w := range Workloads {
			for _, d := range pass.defs {
				k := key(pass.trace, w.Name, d.Name)
				va, vb := a.values[k], b.values[k]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := Median(va), Median(vb)
				diff := 0.0
				if ma != 0 {
					diff = (mb - ma) / math.Abs(ma)
				} else if mb != 0 {
					diff = math.Inf(1)
				}
				sa, sb := spread(va), spread(vb)
				verdict := ""
				switch {
				case d.Bound == 0:
				case sa > d.Bound || sb > d.Bound:
					verdict = "unresolved"
					bad++
				case math.Abs(diff) > d.Bound:
					verdict = "DIFFERS"
					bad++
				}
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				}
				fmt.Fprintf(out, "%-63s %-8s %13.6g %13.6g %+7.2f%% %6s %6.2f%% %6.2f%% %s\n",
					k, d.Unit, ma, mb, 100*diff, bound, 100*sa, 100*sb, verdict)
			}
		}
	}
	runs := make([]string, 0, len(a.exact))
	for run := range a.exact {
		runs = append(runs, run)
	}
	slices.Sort(runs)
	matched := 0
	for _, run := range runs {
		cb, ok := b.exact[run]
		if !ok {
			continue
		}
		matched++
		for name, va := range a.exact[run] {
			if vb := cb[name]; va != vb {
				fmt.Fprintf(out, "COUNT DIFFERS %s %s: %s vs %s\n", run, name, va, vb)
				bad++
			}
		}
	}
	fmt.Fprintf(out, "%d runs of the same workload, seed and length compared count by count\n", matched)
	if bad > 0 {
		return fmt.Errorf("%d metrics or counts differ or are unresolved", bad)
	}
	return nil
}
