// Command replay runs monitoring queries over a recorded tuple trace
// instead of a synthetic workload. The trace is CSV with one tuple per
// line — "ts,x1,...,xd" (header optional, attributes in [0,1], timestamps
// non-decreasing) — the format cmd/datagen and stream.WriteCSV emit.
//
// Each distinct timestamp forms one processing cycle. Queries are given as
// repeated -query flags using a compact spec syntax:
//
//	-query "k=10;w=1,2"            top-10 under f = x1 + 2*x2 (SMA)
//	-query "k=5;w=1,-1;policy=TMA" decreasing preference on x2
//	-query "threshold=1.5;w=1,1"   threshold monitoring query
//
// Example:
//
//	datagen -dist ANT -d 2 -n 5000 | replay -d 2 -n 1000 -query "k=3;w=1,2"
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"topkmon/pkg/topkmon"
)

type querySpecs []string

func (q *querySpecs) String() string     { return strings.Join(*q, " ") }
func (q *querySpecs) Set(s string) error { *q = append(*q, s); return nil }

// watchSignals makes the first SIGINT/SIGTERM close the returned channel
// (the replay loop then winds down: flush, final checkpoint, exit 0) and a
// second signal abort immediately with status 130.
func watchSignals() <-chan struct{} {
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "replay: interrupted, shutting down cleanly (send again to abort)")
		close(stop)
		<-sigs
		os.Exit(130)
	}()
	return stop
}

func main() {
	var (
		dimsFlag      = flag.Int("d", 2, "trace dimensionality")
		nFlag         = flag.Int("n", 10000, "count-based window size")
		spanFlag      = flag.Int64("span", 0, "time-based window span (overrides -n when positive)")
		inFlag        = flag.String("i", "", "trace file (default stdin)")
		everyFlag     = flag.Int64("print-every", 1, "print results every this many cycles")
		shardsFlag    = flag.Int("shards", 1, "engine shards (>1 runs the concurrent sharded engine)")
		partitionFlag = flag.String("partition", "queries", "sharding layout for -shards > 1: 'queries' or 'data'")
		pipelineFlag  = flag.Int("pipeline", 0, "async pipelined ingestion queue depth (0 = synchronous Step)")
		admFlag       = flag.Bool("admission", false, "front pipelined ingestion with the load-shedding admission governor (requires -pipeline)")
		memLimitFlag  = flag.Int64("mem-limit", 0, "hard memory limit in bytes for the governor's Critical watermark (implies -admission; requires -pipeline)")
		ckptFlag      = flag.String("checkpoint", "", "checkpoint directory: WAL every batch and snapshot full state there (must not hold a previous lineage)")
		ckptEveryFlag = flag.Int("checkpoint-every", 10, "cycles between checkpoints with -checkpoint (0 = only at exit)")
		restoreFlag   = flag.String("restore", "", "resume the monitor from this checkpoint directory (structural flags come from the checkpoint; -query adds further queries)")
		queries       querySpecs
	)
	flag.Var(&queries, "query", "query spec 'k=K;w=w1,...,wd[;policy=TMA|SMA]' or 'threshold=T;w=...' (repeatable)")
	flag.Parse()
	if len(queries) == 0 && *restoreFlag == "" {
		fmt.Fprintln(os.Stderr, "replay: at least one -query is required (or -restore)")
		os.Exit(2)
	}
	if *restoreFlag != "" && *ckptFlag != "" {
		fmt.Fprintln(os.Stderr, "replay: -restore resumes an existing lineage; it conflicts with -checkpoint")
		os.Exit(2)
	}
	stop := watchSignals()

	in := io.Reader(os.Stdin)
	if *inFlag != "" {
		f, err := os.Open(*inFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	var mon *topkmon.Monitor
	var err error
	if *restoreFlag != "" {
		mon, err = topkmon.Restore(*restoreFlag)
	} else {
		windowOpt := topkmon.WithCountWindow(*nFlag)
		if *spanFlag > 0 {
			windowOpt = topkmon.WithTimeWindow(*spanFlag)
		}
		partition, perr := topkmon.ParsePartitioning(*partitionFlag)
		if perr != nil {
			fatal(perr)
		}
		monOpts := []topkmon.Option{windowOpt,
			topkmon.WithShards(*shardsFlag), topkmon.WithPartitioning(partition)}
		if *pipelineFlag > 0 {
			monOpts = append(monOpts, topkmon.WithPipeline(*pipelineFlag))
		}
		if *admFlag || *memLimitFlag > 0 {
			monOpts = append(monOpts, topkmon.WithAdmission(topkmon.AdmissionConfig{MemLimit: *memLimitFlag}))
		}
		if *ckptFlag != "" {
			monOpts = append(monOpts, topkmon.WithCheckpoint(*ckptFlag, *ckptEveryFlag))
		}
		mon, err = topkmon.New(*dimsFlag, monOpts...)
	}
	if err != nil {
		fatal(err)
	}
	// A pipelined monitor's Updates channel must be drained; the replay
	// reads results at print boundaries (a pipeline barrier), so the
	// per-cycle deltas are simply discarded here.
	if mon.Pipelined() {
		go func() {
			for range mon.Updates() {
			}
		}()
	}
	var ids []topkmon.QueryID
	for _, qs := range queries {
		spec, err := parseQuery(qs, *dimsFlag)
		if err != nil {
			fatal(fmt.Errorf("query %q: %w", qs, err))
		}
		id, err := mon.Register(spec)
		if err != nil {
			fatal(err)
		}
		ids = append(ids, id)
	}
	if *restoreFlag != "" {
		// The recovered queries continue alongside any newly registered
		// ones; report all of them.
		ids = mon.QueryIDs()
		fmt.Printf("restored %d queries, %d points at t=%d from %s\n",
			len(ids), mon.NumPoints(), mon.Now(), *restoreFlag)
	}

	reader, err := topkmon.NewCSVReader(in, *dimsFlag)
	if err != nil {
		fatal(err)
	}
	if *restoreFlag != "" {
		// Continue the id/sequence numbering where the recovered lineage
		// stopped; restarting at zero would collide with the live window.
		reader.SetNextID(mon.LastSeq() + 1)
	}
	// orderly classifies errors the shutdown path causes itself: a closed
	// pipeline or stopped shard monitor racing the final batches is a clean
	// exit, anything else a fault.
	orderly := func(err error) bool {
		return errors.Is(err, topkmon.ErrClosed) || errors.Is(err, topkmon.ErrStopped)
	}
	cycles := int64(0)
	interrupted := false
loop:
	for {
		select {
		case <-stop:
			interrupted = true
			break loop
		default:
		}
		batch, ts, err := reader.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		if mon.Pipelined() {
			err = mon.Ingest(ts, batch)
		} else {
			_, err = mon.Step(ts, batch)
		}
		if err != nil {
			if orderly(err) {
				interrupted = true
				break
			}
			// A governor shed is graceful degradation, not a fault: the
			// cycle's tuples are dropped (already counted in Stats) and the
			// replay keeps going.
			if !errors.Is(err, topkmon.ErrOverloaded) {
				fatal(err)
			}
		}
		cycles++
		if cycles%*everyFlag == 0 {
			for _, id := range ids {
				res, err := mon.Result(id)
				if err != nil {
					if orderly(err) {
						interrupted = true
						break loop
					}
					fatal(err)
				}
				fmt.Printf("t=%d q%d:", ts, id)
				for _, e := range res {
					fmt.Printf(" p%d(%.4f)", e.T.ID, e.Score)
				}
				fmt.Println()
			}
		}
	}
	if mon.Pipelined() {
		if err := mon.Flush(); err != nil && !orderly(err) {
			fatal(err)
		}
	}
	s := mon.Stats()
	fmt.Printf("replayed %d cycles, %d arrivals, %d expirations, %d recomputations\n",
		cycles, s.Arrivals, s.Expirations, s.Recomputes)
	if mon.AdmissionControlled() {
		snap := mon.AdmissionStats()
		fmt.Printf("admission: state=%s dropped=%d batches / %d tuples, degraded cycles=%d shedding + %d critical\n",
			snap.State, s.DroppedBatches, s.DroppedTuples, snap.SheddingDrains, snap.CriticalDrains)
	} else if s.DroppedBatches > 0 {
		fmt.Printf("dropped: %d batches / %d tuples\n", s.DroppedBatches, s.DroppedTuples)
	}
	if interrupted {
		fmt.Println("interrupted; state flushed" + checkpointNote(*ckptFlag, *restoreFlag))
	}
	// Close is the durability barrier: it drains the pipeline and, when
	// checkpointing, writes the final checkpoint the next -restore resumes
	// from. A failure here must not exit 0.
	if err := mon.Close(); err != nil && !orderly(err) {
		fatal(err)
	}
}

// checkpointNote names the lineage directory a clean shutdown persisted to.
func checkpointNote(ckpt, restore string) string {
	switch {
	case ckpt != "":
		return "; checkpoint finalized in " + ckpt
	case restore != "":
		return "; checkpoint finalized in " + restore
	default:
		return ""
	}
}

// parseQuery decodes the compact "k=K;w=...;policy=..." spec syntax.
func parseQuery(s string, dims int) (topkmon.QuerySpec, error) {
	spec := topkmon.QuerySpec{Policy: topkmon.SMA}
	var weights []float64
	for _, part := range strings.Split(s, ";") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return spec, fmt.Errorf("bad clause %q", part)
		}
		switch key {
		case "k":
			k, err := strconv.Atoi(val)
			if err != nil {
				return spec, err
			}
			spec.K = k
		case "threshold":
			t, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return spec, err
			}
			spec.Threshold = &t
		case "policy":
			p, err := topkmon.ParsePolicy(val)
			if err != nil {
				return spec, err
			}
			spec.Policy = p
		case "w":
			for _, ws := range strings.Split(val, ",") {
				w, err := strconv.ParseFloat(strings.TrimSpace(ws), 64)
				if err != nil {
					return spec, err
				}
				weights = append(weights, w)
			}
		default:
			return spec, fmt.Errorf("unknown key %q", key)
		}
	}
	if len(weights) != dims {
		return spec, fmt.Errorf("need %d weights, got %d", dims, len(weights))
	}
	spec.F = topkmon.Linear(weights...)
	return spec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
