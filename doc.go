// Package topkmon is a Go reproduction of "Continuous Monitoring of Top-k
// Queries over Sliding Windows" (Mouratidis, Bakiras, Papadias — SIGMOD
// 2006), grown into a concurrent monitoring system.
//
// The library continuously evaluates many long-running top-k preference
// queries over a sliding window of streaming multidimensional tuples. The
// valid tuples live in main memory, indexed by a regular grid with
// per-cell influence lists; two maintenance policies are provided — TMA
// (recompute on result expiration) and SMA (k-skyband pre-computation of
// future results) — together with the TSL baseline (Fagin's threshold
// algorithm plus materialized top-k views) the paper compares against.
//
// Beyond the paper, the engine scales across cores: pkg/topkmon can run N
// independent engine shards with results provably identical to the single
// engine on the same stream, in either of two layouts selected by
// WithPartitioning:
//
//   - PartitionQueries (default): every shard indexes the full stream and
//     maintains a disjoint hash-slice of the query set. Query maintenance
//     — the dominant cost at large Q — parallelizes perfectly, but the
//     tuple index is replicated, so memory and ingest work grow ×shards.
//   - PartitionData: each shard indexes a disjoint hash-slice of the
//     tuples (O(N/shards) index memory per shard, O(N) in total), every
//     query runs on every shard, and the router k-way merges the
//     per-shard partial top-k lists into the exact global result, paying
//     a per-update merge cost instead of the memory blow-up. The merge is
//     not free: on the benchmark's fullstack-paced workload (a 2-vCPU VM)
//     two data shards take about 1.3× one engine's cycle time
//     (shard.tax_ratio in BENCHMARK.json's per-layer pass).
//
// Queries are hash-placed and tuples hash-routed: nothing moves between
// shards once it has arrived, and Monitor.ShardLoads reports per-shard
// query counts, EWMA cycle time, attributed cost and memory.
//
// Orthogonally to partitioning, WithPipeline(depth) decouples ingestion
// from query maintenance: Ingest enqueues a batch into a bounded queue
// and returns immediately, cycles run behind the caller's back, and each
// cycle's merged updates arrive in order on the Updates channel — the
// exact per-query Update sequence synchronous Step calls would return,
// verified continuously by the internal/difftest differential fuzz
// harness. Guarantees and trade-offs:
//
//   - Ordering: batches apply in Ingest order; Register/Unregister/Result
//     and counter reads are barriers, so any interleaving with Ingest
//     equals the same interleaving with Step. Flush waits until all prior
//     batches are applied and their updates delivered; Close drains, then
//     closes the Updates channel.
//   - Full queue: the queue depth is fixed and a full queue blocks —
//     Ingest waits, nothing is lost, and the peak occupancy is reported in
//     Stats.QueueHighWater. Blocking alone suits a producer that can
//     stall. Only the admission governor below drops data: add
//     WithAdmission when overload is sustained rather than bursty and loss
//     is acceptable — it sheds early, proportionally and reproducibly,
//     bounds memory, and turns the stall into a typed ErrOverloaded the
//     producer can back off on.
//   - Overlap: under query partitioning, cycles additionally overlap
//     *each other* — shards consume bounded per-shard job queues, so a
//     fast shard runs ahead while the router merges finished cycles.
//     Under data partitioning the router's per-cycle merge is a barrier,
//     so the pipeline overlaps ingestion and delivery with cycles only.
//   - Prefer pipelined ingestion when the producer must not block on
//     cycle latency or when shard counts (and cores) are high enough that
//     cycle/delivery overlap pays; prefer synchronous Step when the
//     caller needs each cycle's updates before producing the next batch.
//
// # Overload and admission control
//
// A blocking queue answers a burst; it does not answer sustained
// overload, where the producer outruns the engine indefinitely and its
// latency grows without bound. WithAdmission installs a
// load-shedding governor (internal/admission) ahead of the pipelined
// ingest queue that turns sustained overload into bounded, observable
// staleness. It is a deterministic three-state machine:
//
//   - Normal: everything is admitted; the only cost is one uncontended
//     lock round-trip per batch (pinned allocation-free and under 2% of
//     a steady-state cycle by the AdmissionOverhead benchmarks and
//     their benchreport ratio invariant).
//   - Shedding, entered when the smoothed queue pressure — the EWMA of
//     ingest-queue occupancy, or of the busiest shard's job-queue
//     occupancy, whichever is higher, so one hot shard triggers shedding
//     before the global queue backs up — crosses the high watermark, or
//     when cycle latency breaches AdmissionConfig.CycleTarget. Two
//     controllers thin the stream: an AIMD token bucket converges the
//     admitted-batch rate onto the measured drain rate (additive raise
//     per healthy cycle, multiplicative cut per breach, floored at
//     MinRate so the stream is never starved), and a RED-style dropper
//     sheds probabilistically with probability ramping from zero at the
//     low watermark to MaxDropProb at the high one — random early
//     dropping instead of deterministic tail-dropping, from a seeded
//     PRNG so runs reproduce. Shedding exits to Normal only after
//     HealthyExit consecutive healthy drains below the low watermark
//     (hysteresis against square-wave flapping).
//   - Critical, forced from any state when the larger of the engine's
//     cap-aware footprint and the process heap crosses
//     MemHighFraction of AdmissionConfig.MemLimit bytes. Critical admits
//     nothing but deletions: arrivals are stripped from admitted batches
//     while the cycles themselves still run, so window expiry keeps
//     shrinking state instead of the queue pinning memory in place. It
//     steps back down to Shedding (never straight to Normal) once memory
//     falls below MemLowFraction and the queue has drained.
//
// The bounded-staleness contract: a governed monitor under overload
// serves results that are exact for the admitted subsequence of the
// stream — the transcript is byte-identical to a reference engine fed
// exactly the admitted batches (shed batches skipped, Critical batches
// arrivals-stripped), a property the overload differential suite
// enforces across seeds and engine modes. Loss is never silent:
// Stats.DroppedBatches/DroppedTuples count it, AdmissionStats reports
// the governor's rate and per-state drain counters (SheddingDrains and
// CriticalDrains are the staleness figures: cycles run while degraded),
// AdmissionState is a lock-free poll, and on a checkpointed monitor every
// shed batch writes an advisory WAL drop record. The overload experiment
// (go run ./cmd/experiments -exp overload) sweeps paced arrival rates
// from 1x to 16x the calibrated cycle budget across shard counts and
// tabulates drop fraction, degraded cycles, and peak memory.
//
// The per-cycle hot path is columnar and batch-scored. Each grid cell
// stores its tuples as a struct-of-arrays block — one flat dims-strided
// coordinate array with parallel id/sequence/timestamp/pointer columns —
// and influence lists are sorted small-slices (binary-search add/remove,
// linear ascending iterate). A cycle groups its arrivals by destination
// cell, appends each group to the cell's block, and scores the whole new
// sub-block per influenced query with one call into the internal/simd
// kernels (hand-written AVX2/NEON assembly selected by runtime feature
// detection, falling back to the scalar reference loop — both legs
// bit-identical to pointwise scoring, a property the kernel equivalence
// tests, a fuzz entry and the differential harness all pin, since scores
// feed total-order comparisons; see "SIMD dispatch" below). Expirations
// batch the same way. Per-query
// outcomes are order-independent within a cycle (TMA's bounded top list
// is set-semantics, a threshold admission or drop depends on its tuple
// alone; admitted SMA arrivals are
// re-sorted into sequence order before skyband insertion), so transcripts
// are byte-identical to the per-tuple path across all engine modes.
// Per-cycle scratch — expiration runs, cell groupings, score buffers,
// result diffs, search heaps and top lists — is pooled on the engine and
// searcher: a steady-state cycle whose results do not change performs no
// allocations beyond the Update payloads it returns.
//
// The layers around the engine keep that steady state. A grid cell's five
// point columns are one block of power-of-two capacity; at the Section 4.1
// sizing a cell holds a few points, so cells drain and refill every few
// cycles, and a drained or outgrown block goes to a per-grid free list
// instead of the collector (pointers cleared, retention bounded per size
// class by a fraction of the indexed population, counted in MemoryBytes).
// The WAL encodes each frame into one buffer it keeps, and the
// data-sharded router stages every cycle in reused per-shard scratch, which
// its MemoryBytes counts at capacity with both merge lists per query. The
// benchmark's allocs_per_tuple (BENCHMARK.json) counts what is left
// through pkg/topkmon: 0.040 objects per tuple on fullstack-paced, where
// these three layers used to cost 2.15, with live_heap_mb 38.5 MB against
// 55.2 (ten 25 s runs each, 2-vCPU amd64 VM). CI gates allocs_per_tuple
// on short fixed-seed runs of fullstack-paced and topk-sma.
//
// Under update streams (Section 7) a deletion names its tuple by id, and
// no Go map resolves it: the grid keeps one open-addressed table
// (internal/container/idtab) from tuple id to cell and slot, and the
// engine checks each cycle's ids against it and two per-cycle tables of
// the same kind before it applies anything. Entries are 16 bytes and hold
// no pointer. Ids hash by Fibonacci multiplication, and a table whose
// probe walk passes a constant bound switches for good to a hash/maphash
// hash under a random seed, which keeps Go maps' resistance to chosen
// colliding ids; the table is never iterated, so no output depends on the
// seed. Against the per-cell maps and engine-wide id map it replaced,
// churn-update's ns_per_tuple fell 1622 → 1196 and its live_heap_mb 52.4
// → 42.9 (BENCHMARK.json names; medians of ten alternating pairs of 25 s
// runs, 2-vCPU amd64 VM).
//
// Under update streams SMA is unavailable (the expiry order is unknown),
// so every top-k query is TMA, and the paper's TMA recomputes whenever a
// deletion takes one of its k result tuples. One deleted tuple that sits
// in most queries' results then recomputes them all in one cycle. There a
// TMA query keeps the materialized view of Yi et al. that the TSL baseline
// keeps: its top list holds the best k' valid tuples, k <= k' <= kmax,
// with kmax = core.DefaultKMax(k), Section 8's tuned table (20 -> 30),
// which tsl.DefaultKMax reads too. An arrival that beats the last entry
// enters and evicts the entry beyond kmax; a deletion leaves the view; the
// query recomputes, to kmax, only when fewer than k entries are left. The
// influence region is registered at the kmax-th score. Result, the
// reported updates and QueryInfo show only the first k entries, so every
// transcript is the one exactly-k TMA produces; only the work counters
// differ. Append-only engines keep kmax = k: the same code is then the
// paper's TMA, and its figures reproduce the paper's algorithm. On
// churn-update (BENCHMARK.json names) ns_per_tuple fell 672 -> 437 and
// cycle_tail_us 2573 -> 288 (medians of ten alternating pairs of 25 s
// runs, 2-vCPU amd64 VM), and the traced pass's core.recomputes_per_cycle
// 24.6 -> 0.003: what search is left is the Register calls. The price is a
// wider influence region (core.influence_events_per_tuple 0.47 -> 0.58)
// and a longer search at Register (topkmon.register_us_p50 9.2 -> 11.1).
//
// Reporting ("report changes to the client", the last line of Figures 9
// and 11) costs what changed, not what the results hold, and touches no
// hash map. A threshold query holds no result at all: it is its spec and
// its bound in the query index. It logs a tuple at the moment the
// admission predicate (score above the threshold, inside the constraint)
// admits it on arrival or drops it on expiry — the expiring tuple is
// scored again, bit-identically — so its delta is read off a per-cycle
// log (an admit and a drop of one tuple within a cycle cancel), and
// Result runs a threshold search on demand. A top-k query keeps the
// result it last reported as one ordered
// list and merges it against the current one under the stream.Better
// order, tuple id as identity, so Added and Removed come out ordered. The
// same merge (core.DiffResults) reports top-k queries for the
// data-sharded router and the TSL baseline; the router reports a
// threshold query by merging the shards' own deltas, since every tuple
// lives on one shard. A cycle that reports anything allocates twice: one
// arena holding every payload and one []Update. The caller owns what Step
// returns and may keep it indefinitely — the engine retains no reference.
// The Added and Removed slices of one cycle are adjacent, capacity-clipped
// windows of that one arena: appending to any of them copies it out and
// never overwrites a neighbour, and keeping one of them alive keeps the
// cycle's whole arena (not the engine's state) alive.
//
// Each query has one delivery structure, fixed by its kind at Register —
// there is no switch. A top-k query (TMA or SMA, constrained or not) has a
// small influence region that moves at every recomputation: it lives on
// the grid's per-cell influence lists, exactly the paper's lazy
// bookkeeping (Section 4.3), and every arrival in a listed cell is scored
// once per listed query. A threshold query has a fixed bound and a region
// that can cover most of the workspace, and is the kind that arrives at
// pub/sub scale (very many near-duplicate standing subscriptions, rare
// matches), where lists would cost O(queries × cells) memory: it lives in
// the query index (internal/qindex). Measured, the split is a 3-4×
// crossover in each direction (ROADMAP, "Collapse the stack (a)"): lists
// win for independent top-k queries at every query count, the index is
// the only structure that carries 100k+ subscriptions. In the index
// queries clump into columnar clusters by preference-function family —
// weight vectors packed dims-strided next to a parallel threshold column,
// exactly the layout the multi-query kernels want — and each cluster
// keeps the minimum of its members' thresholds. A cycle probes the index
// once per touched cell, then walks the cell's influence list (each is a
// no-op when empty): per-cell cluster upper bounds (cached,
// epoch-invalidated only when a registration could add a cell to a
// cluster's reach) prune whole clusters whose best member cannot be
// affected, a second filter scores the actual block against the cluster's
// weight envelope (the componentwise member maximum — one single-query
// kernel call bounding every member bitwise) and skips the cluster when
// even that cannot reach its minimum threshold, surviving clusters score
// the cell's new sub-block for all members in one GEMM-shaped
// internal/simd call (DotBlockMulti and friends — four query rows share
// each coordinate load, every row bit-identical to the single-query
// kernel), and a per-member row-max filter delivers only the (member,
// block) pairs containing a score reaching that member's threshold.
// Index delivery is superset-safe — the threshold handlers apply the
// admission predicate to every delivered score, arriving or expiring — so
// transcripts are
// byte-identical to per-query delivery, which the differential harness
// checks against the naive reference with both structures live in one
// engine. The `querycount` experiment measures the index: per-cycle cost
// sublinear in registered queries out to 1M near-duplicate
// subscriptions, with index memory O(queries + cells).
//
// The performance trajectory is pinned by a benchmark-regression harness:
// internal/benchsuite defines the hot-path benchmarks (the Figure 14
// per-cycle benchmark plus InsertTupleBatch, InfluenceWalk, ScoreBlock
// kernel-vs-pointwise, MultiQueryKernel multi-vs-per-query,
// QueryIndexProbe, the PubSubCycle query-count series, the ReportFanOut
// and ReportTopK reporting cycles and TopKComputation), reachable both via `go test -bench` and via `go run
// ./cmd/benchreport`, which emits BENCH_11.json (ns/op, allocs/op, MB/s
// per benchmark, plus the ScoreBlockLeg/MultiQueryKernelLeg per-leg
// series for the scalar and hardware legs). CI regenerates the report on
// every push and gates it against the committed baseline at ±15%, plus
// hardware-independent speedup invariants (≥2x batch kernel vs
// pointwise, ≥2x multi-query kernel vs per-query loop, ≥4x hardware leg
// vs scalar on both kernel series); a native arm64 job re-runs the
// kernel equivalence tests and fuzz smokes to pin bit-identity on a
// fusing architecture, and both arch jobs re-run the kernel suites under
// both TOPK_SIMD-forcible legs. Refresh the baseline with
// `go run ./cmd/benchreport -out BENCH_11.json` when a change
// intentionally shifts it.
//
// # SIMD dispatch
//
// internal/simd ships two legs per kernel: the scalar reference, which
// is also the leg on every host without assembly (amd64 without AVX2,
// and every architecture other than amd64/arm64), and the hardware leg —
// AVX2 assembly on amd64 (4×float64 ymm lanes) or NEON assembly on arm64
// (chained 2×float64 q-register pairs). Startup feature detection
// (CPUID/XGETBV on amd64; NEON is baseline on arm64) picks the hardware
// leg when the host has one; `TOPK_SIMD=scalar|avx2|neon` forces a leg
// for tests and triage and panics if the host cannot run it, so a forced
// leg can never silently fall back. simd.SetLeg/ActiveLeg expose the
// same control to test code, and the forced-leg equivalence matrix runs
// the exhaustive (dims, n, nq) sweeps — group remainders, NaN/Inf/±0 —
// under both legs. The portable build is type-checked in CI on riscv64
// and 386.
//
// The contract both legs obey: bit-identical float64 results. The
// assembly mirrors the scalar accumulation order exactly and rounds each
// intermediate product (vertical VMULPD/VADDPD and FMUL2D/FADD2D — never
// fused multiply-adds), so transcripts and checkpoints are portable
// across architectures and legs. topklint's bitexact analyzer enforces
// this mechanically: math.FMA and fused assembly mnemonics are banned
// with no exceptions, and every contractible multiply-add shape must
// carry an explicit float64() rounding conversion. Beyond the
// scalar-vs-leg equivalence suites, a metamorphic check whose oracle
// shares no code with the kernels holds both legs and the engine to an
// exact relation: doubling every weight (and threshold) doubles every
// score bit for bit and leaves every transcript's ids and order
// unchanged.
//
// # Invariants and annotations
//
// The engine's correctness story rests on invariants no test can pin
// exhaustively — transcripts must be a pure function of the input stream,
// floating-point scores must be bit-identical across batch/pointwise
// paths and across architectures, the hot path must not allocate, and
// locks must nest in one order. These are enforced mechanically by
// topklint (cmd/topklint), a go/analysis-style suite built on
// internal/analysis and run in CI as `go vet -vettool` on both amd64 and
// arm64. The invariants are declared in the source with //topk:
// directives:
//
//   - //topk:deterministic (package doc or function doc) scopes the
//     determinism rules: no time.Now/Since/Until, no unseeded math/rand,
//     no goroutine spawns or multi-case selects, and no map-range whose
//     iteration order can leak into an output slice, channel, or float
//     accumulation without an intervening sort.
//   - //topk:bitexact (package doc) scopes the float rules: math.FMA is
//     forbidden, any a*b±c shape must wrap the product in an explicit
//     float64(...) conversion (the gc compiler contracts multiply-adds
//     into fused multiply-adds on arm64 but never on amd64, so the conversion is a
//     no-op on amd64 and makes arm64 bit-identical to it), build-tag
//     kernel legs must keep identical exported shapes, and functions
//     annotated //topk:acc N must carry exactly N accumulator chains in
//     their widest loop — the chain count fixes the rounding order.
//   - //topk:hot (function doc) marks hot-path functions: no defer, no
//     goroutine spawns, no variable-capturing closures, no fmt/errors/log
//     calls, no make(map)/make(chan), no string<->[]byte conversions,
//     and no operation on a Go map at all (index, assignment, delete,
//     range, clear — rule mapop): hot state lives in slices and id
//     columns. No map is left on the cycle path: under update streams a
//     tuple id resolves through one open-addressed table
//     (internal/container/idtab), and neither internal/core nor
//     internal/grid carries a mapop exemption, which CI enforces.
//     Heap escapes inside hot functions are budgeted by the committed
//     allowlist internal/analysis/escapes.txt, checked in CI against
//     `go build -gcflags=-m` output and refreshed with
//     `go run ./cmd/topklint escapes -update` (amd64 only — escape
//     decisions are arch-dependent).
//   - //topk:lockrank N [leaf] (mutex field comment) declares the lock
//     order: a lock may only be acquired while holding locks of strictly
//     lower rank, and leaf locks (the innermost hot locks) additionally
//     forbid channel operations and calls to //topk:blocking functions
//     while held.
//
// A diagnostic that is a considered false positive is suppressed in place
// with `//topk:allow <analyzer> <reason>` on the flagged line or the line
// above; the reason is mandatory documentation, and suppressions are
// grep-able for audit. Run the suite locally with `go run ./cmd/topklint
// ./...` (exit 0 clean / 1 findings / 2 build error; -json for tooling,
// -fix to apply the suggested float64 conversions).
//
// Every layer above the engine is put together in one place,
// internal/stack: its Build and Restore assemble the engine (or shards),
// the WAL guard, the pipeline and the admission governor in that order for
// the facade's New and Restore, the experiment harness and the
// differential tests alike.
//
// Use pkg/topkmon — the public facade with functional options — as the
// entry point:
//
//	mon, _ := topkmon.New(2, topkmon.WithCountWindow(10000), topkmon.WithShards(4))
//	defer mon.Close()
//	q, _ := mon.RegisterTopK(topkmon.Linear(1, 2), 5)
//	updates, _ := mon.Step(ts, batch)
//
// Package layout:
//
//	pkg/topkmon        public API: Monitor facade, functional options, re-exports
//	internal/core      the monitoring engine, TMA and SMA (the paper, start here)
//	internal/shard     the sharded concurrent engine (N cores, same results)
//	internal/pipeline  async pipelined ingestion with bounded queues and backpressure
//	internal/stack     the one assembly point: engine → shards → WAL guard → pipeline → governor
//	internal/difftest  randomized differential harness: all modes vs a naive scorer
//	internal/tsl       the TSL baseline
//	internal/geom      scoring functions and workspace geometry
//	internal/grid      the grid index: columnar cells, sorted influence lists (top-k queries)
//	internal/qindex    the query index (threshold queries): columnar clusters, cell-probe caches
//	internal/simd      batch scoring kernels over dims-strided blocks
//	internal/topk      the top-k computation module (best-first cell search)
//	internal/benchsuite the hot-path benchmarks behind cmd/benchreport
//	internal/skyband   k-skyband maintenance in score-time space
//	internal/window    count-based and time-based sliding windows
//	internal/stream    tuples, CSV traces, and IND/ANT workload generators
//	internal/harness   experiment runner for every figure of the paper
//
// Commands: cmd/topkmon (cost profile of one run), cmd/experiments (the
// paper's figures plus shard-scaling and partitioning sweeps), cmd/replay
// (monitor a recorded trace), cmd/datagen (synthetic datasets and
// traces), cmd/benchreport (the hot-path benchmark report and regression
// gate). The grid commands (cmd/topkmon, cmd/replay, cmd/experiments)
// accept -shards and -partition=queries|data. See the examples/ directory
// for runnable end-to-end programs and EXPERIMENTS.md for the
// reproduction results.
package topkmon
