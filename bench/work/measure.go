package work

import (
	"cmp"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"topkmon/bench/load"
)

// counters is one reading of the process-wide figures the end-to-end
// metrics are deltas of.
type counters struct {
	allocs uint64 // /gc/heap/allocs:objects
	bytes  uint64 // /gc/heap/allocs:bytes
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readCounters() counters {
	metrics.Read(counterSamples)
	return counters{
		allocs: counterSamples[0].Value.Uint64(),
		bytes:  counterSamples[1].Value.Uint64(),
	}
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The time metrics are those of a span deflated to its own quiet pace. The
// host this benchmark runs on is shared, and for seconds or minutes at a time
// every call takes a fifth to a half longer than in the minutes before and
// after; part of that sits on the whole period, part comes and goes within a
// second. A span is cut into segments of SegmentCycles consecutive cycles.
// The quiet pace is the median cycle latency of the 1/QuietShare of the
// segments whose own median is lowest, and every time measured in a segment
// whose median cycle is slower than that (cycle latencies, time in monitor
// calls, CPU time) is scaled down by the ratio of the two before any metric
// is taken over the whole span.
//
// A segment's median is what tells the host's pace from the work: the rare
// expensive cycle (a collection, a fan-out to thousands of subscribers, a
// burst of recomputations) does not move it, so the time of those cycles is
// kept, at the quiet pace, and a change that makes every cycle slower moves
// the quiet pace and every segment's median alike. What the deflation does
// take away with the host's share is a workload's own slow drift of the
// median cycle from one segment to the next (up to a tenth on churn-update);
// that is the same for a seed on both sides of a comparison.
//
// Sixty runs of churn-update, ten of them in and around a slow period, in
// sets of ten as the driver takes them: the spread of the plain median cycle
// was 32% in the worst set and of the deflated 19%; of the plain time per
// tuple 29% and of the deflated 18%; of the median over the segments of each
// one's 99th percentile 33% and 17%. In the other five sets the two read the
// same to within three points. Means over the quiet segments alone did as well
// there, but on pubsub-threshold, where four fifths of the time is fan-out
// that the thresholds fix for the whole span, not for a quarter of it, their
// spread was 16% where the whole span's, deflated or not, was 6%.
const (
	SegmentCycles = 100
	QuietShare    = 4
)

// segment is what one segment of a span measured.
type segment struct {
	// latency holds the cycle latencies sampled in the segment.
	latency []time.Duration
	// busy is the time spent in monitor calls (closed loops), cpu the
	// process CPU time used; cycles and tuples count what was applied.
	busy, cpu time.Duration
	cycles    int
	tuples    int64
}

// segmentCycles is the segment length of a span of the given length: a span
// shorter than a few segments (the tests' small variants) is cut finer.
func segmentCycles(cycles int) int {
	return min(SegmentCycles, max(cycles/(2*QuietShare), 1))
}

// quietPace returns the median cycle latency of the quiet segments. A
// segment of the paced loop in which nothing was delivered has no pace.
func quietPace(segs []segment) time.Duration {
	ranked := slices.DeleteFunc(slices.Clone(segs), func(s segment) bool { return len(s.latency) == 0 })
	slices.SortStableFunc(ranked, func(a, b segment) int {
		return cmp.Compare(Percentile(a.latency, 50), Percentile(b.latency, 50))
	})
	var quiet []time.Duration
	for _, s := range ranked[:max(len(ranked)/QuietShare, min(len(ranked), 1))] {
		quiet = append(quiet, s.latency...)
	}
	return Percentile(quiet, 50)
}

// deflate scales the times of every segment slower than the quiet pace down
// to it.
func deflate(segs []segment) {
	pace := quietPace(segs)
	for i := range segs {
		s := &segs[i]
		median := Percentile(s.latency, 50)
		if median <= pace {
			continue
		}
		f := float64(pace) / float64(median)
		for j, d := range s.latency {
			s.latency[j] = time.Duration(float64(d) * f)
		}
		s.busy = time.Duration(float64(s.busy) * f)
		s.cpu = time.Duration(float64(s.cpu) * f)
	}
}

// batchAllocs is what the generator allocates for one batch.
type batchAllocs struct{ objects, bytes float64 }

// generatorAllocs measures what load.Gen allocates for a batch of n tuples,
// with the counters the metrics are read from. Run measures it before it
// builds anything, while nothing else in the process allocates; a span
// subtracts it for every batch generated inside it, so that
// allocs_per_tuple and bytes_per_tuple are the monitor's.
func generatorAllocs(n int) batchAllocs {
	const batches = 128
	g := load.NewGen(0)
	before := readCounters()
	for i := 0; i < batches; i++ {
		g.Batch(n, 0)
	}
	after := readCounters()
	return batchAllocs{
		objects: float64(after.allocs-before.allocs) / batches,
		bytes:   float64(after.bytes-before.bytes) / batches,
	}
}

// liveHeapBytes forces a collection and returns what it marked live.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples; 0 for an empty slice.
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	samples = slices.Clone(samples)
	slices.Sort(samples)
	rank := int(math.Ceil(float64(len(samples))*p/100)) - 1
	return samples[min(max(rank, 0), len(samples)-1)]
}

// Micros converts a duration to fractional microseconds.
func Micros(d time.Duration) float64 { return float64(d) / 1e3 }

// Median returns the median of xs (sorting a copy); 0 for none.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// SleepUntil blocks until t. It sleeps in the kernel: time.Sleep wakes an
// idle Go program through a millisecond-granular poll, which sent the paced
// generator's batches a median 0.6 ms late.
func SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep is retried for the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
