// Command bench is the repository's end-to-end benchmark. It drives the
// named workloads through the public pkg/topkmon.Monitor, checks the
// results, and prints every end-to-end metric by name with its unit. The
// per-layer pass is the sibling program in ./layers; run.sh builds and
// picks between the two. See README.md.
//
//	bench -seed 1                      every workload, each in a child process
//	bench -workload topk-sma -seed 1   one workload; last line is the result object
//	bench -compare A.json B.json       compare two result files
package main

import (
	"flag"
	"fmt"
	"os"

	"topkmon/bench/work"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	fl := work.Flags(flag.CommandLine)
	compare := flag.Bool("compare", false, "compare the two result files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return work.Compare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if fl.Trace != 0 {
		return fmt.Errorf("the traced pass is the ./layers program; run.sh picks it on --trace 1")
	}
	if fl.Workload == "" {
		return work.RunAll(fl, os.Stdout, os.Stderr)
	}
	w, err := work.Find(fl.Workload)
	if err != nil {
		return err
	}
	out, err := work.Run(w, fl.Config())
	if err != nil {
		return err
	}
	rec, err := work.NewRecord(out, fl.Seconds, false, work.EndToEnd, out.Metrics)
	if err != nil {
		return err
	}
	return fl.Emit(rec, work.EndToEnd)
}
