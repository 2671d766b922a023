package work

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
)

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the JSON object a run prints as the last line of its output.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Record is one run as kept in a result file: the printed line plus what
// identifies the run and the counts that must repeat exactly for a seed.
type Record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Line
	// Exact holds counts the program makes (transcript hashes, delivery
	// and Stats counts) as decimal strings.
	Exact map[string]string `json:"exact,omitempty"`
	Error string            `json:"error,omitempty"`
}

// NewRecord turns measured values into a record, keeping exactly the
// declared metrics.
func NewRecord(o *Outcome, seconds float64, trace bool, defs []Metric, values map[string]float64) (Record, error) {
	rec := Record{
		Workload: o.Workload.Name, Seed: o.Seed, Seconds: seconds, Trace: trace,
		Line: Line{
			Correct: o.Correct(), Attempted: o.Attempted, Failed: o.Failed,
			Metrics: make(map[string]Value, len(defs)),
		},
		Exact: map[string]string{
			"transcript":       fmt.Sprint(o.Transcript),
			"deliveries":       fmt.Sprint(o.Deliveries),
			"tuples":           fmt.Sprint(o.Tuples),
			"recomputes":       fmt.Sprint(o.Stats.Recomputes),
			"cells_processed":  fmt.Sprint(o.Stats.CellsProcessed),
			"heap_ops":         fmt.Sprint(o.Stats.HeapOps),
			"influence_events": fmt.Sprint(o.Stats.InfluenceEvents),
			"result_updates":   fmt.Sprint(o.Stats.ResultUpdates),
			"skyband_size_sum": fmt.Sprint(o.Stats.SkybandSizeSum),
			"attempted":        fmt.Sprint(o.Attempted),
			"failed":           fmt.Sprint(o.Failed),
		},
		Error: o.FirstError,
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return Record{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rec.Metrics[d.Name] = Value{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return Record{}, fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	return rec, nil
}

// Print writes one `workload metric value unit` line per metric, in the
// declared order, and the result object as the last line.
func (r Record) Print(w io.Writer, defs []Metric) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	frac := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(w, "%s failed_frac %.6g ratio (%d of %d)\n", r.Workload, frac, r.Failed, r.Attempted)
	if r.Error != "" {
		fmt.Fprintf(w, "%s first failure: %s\n", r.Workload, r.Error)
	}
	line, err := json.Marshal(r.Line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// File is a result file: the runs of one or more invocations.
type File struct {
	Runs []Record `json:"runs"`
}

// LoadFile reads a result file; a missing file is an empty one.
func LoadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Append adds a record to the result file at path.
func Append(path string, rec Record) error {
	f, err := LoadFile(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Options are the command-line options both benchmark programs share.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    int
	Out      string
	Append   bool
	TmpDir   string
}

// Flags declares the shared options on fs.
func Flags(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.StringVar(&o.Workload, "workload", "", "workload to run; empty runs every one, each in a child process")
	fs.Int64Var(&o.Seed, "seed", 1, "seed of the benchmark's own generators")
	fs.Float64Var(&o.Seconds, "seconds", RunSeconds, "length the measured span is sized for; cycle counts scale with it")
	fs.IntVar(&o.Trace, "trace", 0, "0: end-to-end metrics; 1: the traced per-layer pass")
	fs.StringVar(&o.Out, "out", filepath.Join("artifacts", "bench", "result.json"), "result file")
	fs.BoolVar(&o.Append, "append", false, "add to the result file instead of replacing it")
	fs.StringVar(&o.TmpDir, "tmp", filepath.Join("artifacts", "bench", "tmp"), "where checkpoint directories are made and removed")
	return o
}

// Config returns the run configuration the options describe.
func (o *Options) Config() Config {
	return Config{Seed: o.Seed, Seconds: o.Seconds, Detail: o.Trace != 0, TmpDir: o.TmpDir}
}

// startFile removes the result file unless the run adds to it.
func (o *Options) startFile() error {
	if o.Append {
		return nil
	}
	if err := os.Remove(o.Out); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Emit prints the record, files it, and reports a failed check as an error
// so that the program exits non-zero.
func (o *Options) Emit(rec Record, defs []Metric) error {
	if err := o.startFile(); err != nil {
		return err
	}
	if err := Append(o.Out, rec); err != nil {
		return err
	}
	if err := rec.Print(os.Stdout, defs); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %s", rec.Workload, rec.Failed, rec.Attempted, rec.Error)
	}
	return nil
}

// RunAll is the one command: it runs every workload, each in a fresh child
// process of this program so that heap state and GC pacing do
// not leak from one workload into the next, and collects the records in the
// result file. It returns an error if any child failed.
func RunAll(o *Options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := o.startFile(); err != nil {
		return err
	}
	var failed []string
	for _, w := range Workloads {
		cmd := exec.Command(self,
			"-workload", w.Name, "-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(o.Seconds),
			"-trace", fmt.Sprint(o.Trace), "-tmp", o.TmpDir, "-out", o.Out, "-append")
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.Name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	fmt.Fprintf(stdout, "results in %s\n", o.Out)
	return nil
}
