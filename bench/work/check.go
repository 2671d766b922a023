package work

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"topkmon/bench/load"
	"topkmon/pkg/topkmon"
)

// query is one registered query.
type query struct {
	Spec
	id topkmon.QueryID
}

// liveTuple is the model's copy of one live tuple. It is a copy by value,
// not the pointer the monitor was handed, which would keep the tuple
// reachable, and in live_heap_mb, whatever the monitor itself retains.
type liveTuple struct {
	id, seq uint64
	vec     [load.Dims]float64
}

// model is the benchmark's own copy of the live tuple set, which the
// brute-force check scans. Append-only workloads keep the last window
// tuples in a ring; the churn workload keeps a bag it deletes from.
type model struct {
	live []liveTuple
	ring bool
	head int // ring: index of the oldest tuple once full
	size int // ring: the window
}

func newModel(window int, ring bool) *model {
	return &model{live: make([]liveTuple, 0, window+window/8), ring: ring, size: window}
}

// arrive adds one cycle's arrivals, evicting the oldest from a ring.
func (m *model) arrive(batch []*topkmon.Tuple) {
	for _, t := range batch {
		lt := liveTuple{id: t.ID, seq: t.Seq, vec: [load.Dims]float64(t.Vec)}
		if m.ring && len(m.live) == m.size {
			m.live[m.head] = lt
			m.head = (m.head + 1) % m.size
		} else {
			m.live = append(m.live, lt)
		}
	}
}

// removeRandom deletes n distinct uniformly random live tuples and
// appends their ids to out.
func (m *model) removeRandom(rng *rand.Rand, n int, out []uint64) []uint64 {
	for i := 0; i < n && len(m.live) > 0; i++ {
		j := rng.Intn(len(m.live))
		out = append(out, m.live[j].id)
		last := len(m.live) - 1
		m.live[j] = m.live[last]
		m.live = m.live[:last]
	}
	return out
}

// better is the repository's total preference order (stream.Better):
// higher score first, and on equal scores the later arrival.
func better(s1 float64, seq1 uint64, s2 float64, seq2 uint64) bool {
	if s1 != s2 {
		return s1 > s2
	}
	return seq1 > seq2
}

type scored struct {
	id, seq uint64
	score   float64
}

// expect computes q's result by scanning every live tuple, into buf.
func (m *model) expect(q query, buf []scored) []scored {
	buf = buf[:0]
	for j := range m.live {
		t := &m.live[j]
		s := q.F.Score(t.vec[:])
		if q.Threshold != nil {
			if s > *q.Threshold {
				buf = append(buf, scored{t.id, t.seq, s})
			}
			continue
		}
		if len(buf) == K && !better(s, t.seq, buf[K-1].score, buf[K-1].seq) {
			continue
		}
		// Insertion into the sorted top-K: rare once the buffer holds
		// good tuples, so the scan stays linear.
		i := len(buf)
		if i < K {
			buf = append(buf, scored{})
		} else {
			i = K - 1
		}
		for ; i > 0 && better(s, t.seq, buf[i-1].score, buf[i-1].seq); i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = scored{t.id, t.seq, s}
	}
	if q.Threshold != nil {
		slices.SortFunc(buf, func(a, b scored) int {
			if better(a.score, a.seq, b.score, b.seq) {
				return -1
			}
			return 1
		})
	}
	return buf
}

// checker compares sampled results with the model.
type checker struct {
	rng *rand.Rand
	buf []scored
	// reads, when set, collects the duration of every Result call.
	reads *[]time.Duration
}

// check compares the monitor's result for n sampled queries with a scan
// of the model and returns how many were compared and how many differed.
func (c *checker) check(mon *topkmon.Monitor, m *model, queries []query, n int) (attempted, failed int64, first error) {
	for i := 0; i < n && len(queries) > 0; i++ {
		q := queries[c.rng.Intn(len(queries))]
		attempted++
		t0 := time.Now()
		got, err := mon.Result(q.id)
		if c.reads != nil {
			*c.reads = append(*c.reads, time.Since(t0))
		}
		if err == nil {
			c.buf = m.expect(q, c.buf)
			err = sameResult(got, c.buf)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("query %d: %w", q.id, err)
			}
		}
	}
	return attempted, failed, first
}

func sameResult(got []topkmon.Entry, want []scored) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d entries, brute force %d", len(got), len(want))
	}
	for i, e := range got {
		if e.T.ID != want[i].id || e.Score != want[i].score {
			return fmt.Errorf("rank %d is tuple %d score %v, brute force tuple %d score %v",
				i, e.T.ID, e.Score, want[i].id, want[i].score)
		}
	}
	return nil
}

// transcript is a running FNV-1a hash of everything the monitor reported.
type transcript struct {
	h   hash.Hash64
	buf [8]byte
}

func newTranscript() *transcript { return &transcript{h: fnv.New64a()} }

func (t *transcript) word(v uint64) {
	binary.LittleEndian.PutUint64(t.buf[:], v)
	t.h.Write(t.buf[:])
}

func (t *transcript) entries(es []topkmon.Entry) {
	t.word(uint64(len(es)))
	for _, e := range es {
		t.word(e.T.ID)
		t.word(math.Float64bits(e.Score))
	}
}

// updates folds one cycle's updates in. A cycle without updates leaves no
// trace, as it leaves none on a pipelined monitor's Updates channel.
func (t *transcript) updates(ups []topkmon.Update) {
	if len(ups) == 0 {
		return
	}
	t.word(uint64(len(ups)))
	for _, u := range ups {
		t.word(uint64(u.Query))
		t.entries(u.Added)
		t.entries(u.Removed)
	}
}

func (t *transcript) sum() uint64 { return t.h.Sum64() }
