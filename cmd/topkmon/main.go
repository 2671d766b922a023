// Command topkmon runs a single continuous-monitoring simulation and
// reports its cost profile: per-cycle CPU time, space, recomputation
// counts, and the average auxiliary-structure size.
//
// Example:
//
//	topkmon -algo SMA -dist ANT -d 4 -n 100000 -r 1000 -q 100 -k 20 -cycles 50
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"topkmon/internal/harness"
	"topkmon/internal/stream"
	"topkmon/pkg/topkmon"
)

// watchSignals installs graceful-shutdown handling shared by the
// commands: the first SIGINT/SIGTERM closes the returned channel so the
// run winds down cleanly (flushing pipelines, writing the final
// checkpoint, exiting 0); a second signal aborts immediately with the
// conventional 128+SIGINT status.
func watchSignals(name string) <-chan struct{} {
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintf(os.Stderr, "%s: interrupted, shutting down cleanly (send again to abort)\n", name)
		close(stop)
		<-sigs
		os.Exit(130)
	}()
	return stop
}

func main() {
	var (
		algoFlag      = flag.String("algo", "SMA", "algorithm: TSL, TMA or SMA")
		distFlag      = flag.String("dist", "IND", "data distribution: IND or ANT")
		funcFlag      = flag.String("func", "linear", "scoring family: linear, product, quadratic, mixed")
		dimsFlag      = flag.Int("d", 4, "dimensionality")
		nFlag         = flag.Int("n", 100000, "window size (count-based)")
		rFlag         = flag.Int("r", 1000, "arrivals per processing cycle")
		qFlag         = flag.Int("q", 100, "number of monitoring queries")
		kFlag         = flag.Int("k", 20, "results per query")
		cyclesFlag    = flag.Int("cycles", 50, "measured processing cycles")
		cellsFlag     = flag.Int("cells", 0, "target total grid cells (0 = auto-tune)")
		resFlag       = flag.Int("res", 0, "cells per axis (overrides -cells)")
		kmaxFlag      = flag.Int("kmax", 0, "TSL view capacity (0 = tuned default)")
		shardsFlag    = flag.Int("shards", 1, "engine shards (grid algorithms; >1 runs the concurrent sharded engine)")
		partitionFlag = flag.String("partition", "queries", "sharding layout for -shards > 1: 'queries' or 'data'")
		pipelineFlag  = flag.Int("pipeline", 0, "async pipelined ingestion queue depth (grid algorithms; 0 = synchronous Step)")
		admFlag       = flag.Bool("admission", false, "front pipelined ingestion with the load-shedding admission governor (requires -pipeline)")
		memLimitFlag  = flag.Int64("mem-limit", 0, "hard memory limit in bytes for the governor's Critical watermark (implies -admission)")
		admTargetFlag = flag.Duration("admission-target", 0, "per-cycle latency target for the governor: cycles above it count as overload (implies -admission)")
		ingestIntFlag = flag.Duration("ingest-interval", 0, "pace pipelined ingestion to one batch per interval instead of generating flat out (requires -pipeline)")
		statsFlag     = flag.Int("stats-every", 0, "print per-shard load stats every this many cycles (0 = off)")
		ckptFlag      = flag.String("checkpoint", "", "checkpoint directory: WAL every batch and snapshot full state there (grid algorithms; must not hold a previous lineage)")
		ckptEveryFlag = flag.Int("checkpoint-every", 10, "cycles between checkpoints with -checkpoint (0 = only at exit)")
		seedFlag      = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	algo, err := harness.ParseAlgo(*algoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dist, err := stream.ParseDistribution(*distFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fk, err := stream.ParseFunctionKind(*funcFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	partition, err := topkmon.ParsePartitioning(*partitionFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := harness.Config{
		Algo:            algo,
		Dist:            dist,
		Func:            fk,
		Dims:            *dimsFlag,
		N:               *nFlag,
		R:               *rFlag,
		Q:               *qFlag,
		K:               *kFlag,
		Cycles:          *cyclesFlag,
		TargetCells:     *cellsFlag,
		GridRes:         *resFlag,
		KMax:            *kmaxFlag,
		Shards:          *shardsFlag,
		DataPartition:   partition == topkmon.PartitionData,
		Pipeline:        *pipelineFlag,
		Admission:       *admFlag,
		MemLimit:        *memLimitFlag,
		AdmissionTarget: *admTargetFlag,
		IngestInterval:  *ingestIntFlag,
		CheckpointDir:   *ckptFlag,
		CheckpointEvery: *ckptEveryFlag,
		Seed:            *seedFlag,
	}
	cfg.Stop = watchSignals("topkmon")
	if (cfg.Shards > 1 || cfg.Pipeline > 0 || cfg.CheckpointDir != "") && algo == harness.AlgoTSL {
		fmt.Fprintln(os.Stderr, "topkmon: -shards, -pipeline and -checkpoint apply to the grid algorithms only (TMA/SMA)")
		os.Exit(2)
	}
	if *statsFlag > 0 {
		cfg.ProgressEvery = *statsFlag
		cfg.Progress = func(cycle int, loads []harness.ShardLoad) {
			fmt.Printf("  cycle %d loads:", cycle)
			for _, l := range loads {
				fmt.Printf(" s%d[q=%d ewma=%s cost=%d mem=%s hw=%s cellhw=%s]",
					l.Shard, l.Queries, harness.FormatDuration(time.Duration(l.EWMACycleNS)),
					l.Cost, harness.FormatMB(l.MemoryBytes),
					harness.FormatMB(l.MemoryHighWater), harness.FormatMB(l.MaxCellBytesHighWater))
			}
			fmt.Println()
		}
		cfg.AdmissionProgress = func(cycle int, snap harness.AdmissionSnapshot) {
			fmt.Printf("  cycle %d admission: state=%s rate=%.2f occ=%.2f admitted=%d shed=%d stripped=%d\n",
				cycle, snap.State, snap.Rate, snap.AvgOccupancy, snap.Admitted, snap.ShedBatches, snap.StrippedBatches)
		}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("running %s on %s d=%d N=%d r=%d Q=%d k=%d func=%s cycles=%d shards=%d pipeline=%d\n",
		algo, dist, cfg.Dims, cfg.N, cfg.R, cfg.Q, cfg.K, fk, cfg.Cycles, *shardsFlag, cfg.Pipeline)
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res.Interrupted {
		fmt.Printf("  interrupted after %d/%d cycles; figures cover the completed portion\n",
			res.CyclesRun, cfg.Cycles)
	}
	fmt.Printf("  init (registration):  %s\n", harness.FormatDuration(res.InitTime))
	fmt.Printf("  total maintenance:    %s\n", harness.FormatDuration(res.RunTime))
	fmt.Printf("  per cycle:            %s\n", harness.FormatDuration(res.PerCycle()))
	fmt.Printf("  space:                %s\n", harness.FormatMB(res.SpaceBytes))
	if res.MemoryHighWater > 0 {
		fmt.Printf("  space high-water:     %s (max cell %s)\n",
			harness.FormatMB(res.MemoryHighWater), harness.FormatMB(res.MaxCellBytesHighWater))
	}
	fmt.Printf("  recomputes/refills:   %d\n", res.Recomputes)
	if res.CellsProcessed > 0 {
		fmt.Printf("  cells processed:      %d\n", res.CellsProcessed)
	}
	if res.AvgAuxSize > 0 {
		fmt.Printf("  avg view/skyband:     %.1f entries per query\n", res.AvgAuxSize)
	}
	if res.MaxShardCycleNS > 0 {
		fmt.Printf("  shard cycle max/mean: %s / %s\n",
			harness.FormatDuration(time.Duration(res.MaxShardCycleNS)),
			harness.FormatDuration(time.Duration(res.MeanShardCycleNS)))
	}
	if res.AdmissionState != "" {
		offered := int64(res.CyclesRun) * int64(cfg.R)
		frac := 0.0
		if offered > 0 {
			frac = 100 * float64(res.DroppedTuples) / float64(offered)
		}
		fmt.Printf("  admission:            state=%s dropped=%d batches / %d tuples (%.1f%%) degraded cycles=%d shedding + %d critical\n",
			res.AdmissionState, res.DroppedBatches, res.DroppedTuples, frac,
			res.SheddingCycles, res.CriticalCycles)
	} else if res.DroppedBatches > 0 {
		fmt.Printf("  dropped:              %d batches / %d tuples\n", res.DroppedBatches, res.DroppedTuples)
	}
}
