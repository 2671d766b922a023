// Command experiments regenerates the tables behind every figure of the
// paper's evaluation (Section 8).
//
// Usage:
//
//	experiments -list
//	experiments -exp fig15 -scale 0.05
//	experiments -exp all -scale 0.01 -csv
//
// At -scale 1 the sweeps use the paper's full workload (N up to 5M tuples,
// Q up to 5K queries, 100 cycles) and can run for hours — exactly like the
// original testbed. Small scales preserve the trends (r stays at 1% of N,
// the grid keeps its points-per-cell density) and finish in minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"topkmon/internal/harness"
	"topkmon/internal/stack"
)

// watchSignals makes the first SIGINT/SIGTERM close the returned channel —
// every harness run then exits at its next cycle boundary and the sweep
// stops after the current experiment, exiting 0 with the completed tables
// printed. A second signal aborts immediately with status 130.
func watchSignals() <-chan struct{} {
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "experiments: interrupted, finishing current run (send again to abort)")
		close(stop)
		<-sigs
		os.Exit(130)
	}()
	return stop
}

func main() {
	var (
		expFlag      = flag.String("exp", "all", "experiment id (fig14..fig21, table2, kmax, model, order, shards, partition, pipeline, querycount, overload), comma-separated, or 'all'")
		scaleFlag    = flag.Float64("scale", 0.02, "workload scale relative to the paper's defaults (1 = full N=1M, Q=1K)")
		seedFlag     = flag.Int64("seed", 1, "workload seed")
		csvFlag      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		listFlag     = flag.Bool("list", false, "list available experiments and exit")
		shardsFlag   = flag.Int("shards", 0, "run grid algorithms on this many engine shards (0/1 = single engine)")
		pipelineFlag = flag.Int("pipeline", 0, "drive runs through async pipelined ingestion with this queue depth (0 = synchronous Step)")
	)
	flag.Parse()
	stop := watchSignals()
	harness.DefaultStop = stop
	harness.DefaultStack = stack.Config{Shards: *shardsFlag, PipeDepth: *pipelineFlag}

	if *listFlag {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var exps []harness.Experiment
	if *expFlag == "all" {
		exps = harness.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := harness.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	for _, e := range exps {
		select {
		case <-stop:
			fmt.Fprintln(os.Stderr, "experiments: sweep interrupted; remaining experiments skipped")
			return
		default:
		}
		fmt.Printf("== %s (scale=%g) ==\n", e.Title, *scaleFlag)
		tables, err := e.Run(*scaleFlag, *seedFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			var err error
			if *csvFlag {
				err = tbl.CSV(os.Stdout)
				fmt.Println()
			} else {
				err = tbl.Render(os.Stdout)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
