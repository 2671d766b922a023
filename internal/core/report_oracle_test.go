package core_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/difftest"
	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// snapshotOracle is the reporter the engine used to have, kept as a
// test-only reference: after every cycle it snapshots every live query's
// whole result and diffs it, through hash maps keyed by tuple id, against
// the snapshot it reported last. It wraps an engine, checks the engine's
// own updates against that diff on every cycle, and otherwise forwards —
// so the difftest replay driver can run it over the scenario matrix.
type snapshotOracle struct {
	*core.Engine
	last map[core.QueryID]map[uint64]core.Entry
	// tiedSeqs is set for streams that reuse sequence numbers: entries
	// tied under stream.Better have no defined relative order, so the
	// comparison orders each side canonically first.
	tiedSeqs bool
}

func newSnapshotOracle(e *core.Engine) *snapshotOracle {
	return &snapshotOracle{Engine: e, last: map[core.QueryID]map[uint64]core.Entry{}}
}

func (o *snapshotOracle) snapshot(id core.QueryID) (map[uint64]core.Entry, []core.Entry, error) {
	cur, err := o.Engine.Result(id)
	if err != nil {
		return nil, nil, err
	}
	byID := make(map[uint64]core.Entry, len(cur))
	for _, en := range cur {
		byID[en.T.ID] = en
	}
	return byID, cur, nil
}

func (o *snapshotOracle) Register(spec core.QuerySpec) (core.QueryID, error) {
	id, err := o.Engine.Register(spec)
	if err == nil {
		o.last[id], _, err = o.snapshot(id)
	}
	return id, err
}

func (o *snapshotOracle) Unregister(id core.QueryID) error {
	delete(o.last, id)
	return o.Engine.Unregister(id)
}

// canonical orders entries by (score, seq, id), all descending but the id.
func canonical(entries []core.Entry) {
	slices.SortFunc(entries, func(a, b core.Entry) int {
		switch {
		case stream.Better(a.Score, a.T.Seq, b.Score, b.T.Seq):
			return -1
		case stream.Better(b.Score, b.T.Seq, a.Score, a.T.Seq):
			return 1
		}
		return int(a.T.ID) - int(b.T.ID)
	})
}

// expect is the snapshot-diff: the updates the old reporter would have
// returned for the cycle that just ran.
func (o *snapshotOracle) expect() ([]core.Update, error) {
	var want []core.Update
	for _, id := range slices.Sorted(maps.Keys(o.last)) {
		curIDs, cur, err := o.snapshot(id)
		if err != nil {
			return nil, err
		}
		upd := core.Update{Query: id}
		for _, en := range cur {
			if _, ok := o.last[id][en.T.ID]; !ok {
				upd.Added = append(upd.Added, en)
			}
		}
		for tid, en := range o.last[id] {
			if _, ok := curIDs[tid]; !ok {
				upd.Removed = append(upd.Removed, en)
			}
		}
		if len(upd.Added) == 0 && len(upd.Removed) == 0 {
			continue
		}
		canonical(upd.Added)
		canonical(upd.Removed)
		o.last[id] = curIDs
		want = append(want, upd)
	}
	return want, nil
}

func (o *snapshotOracle) check(got []core.Update, err error) ([]core.Update, error) {
	if err != nil {
		return got, err
	}
	want, err := o.expect()
	if err != nil {
		return got, err
	}
	cmp := got
	if o.tiedSeqs {
		cmp = make([]core.Update, len(got))
		for i, u := range got {
			cmp[i] = core.Update{Query: u.Query, Added: slices.Clone(u.Added), Removed: slices.Clone(u.Removed)}
			canonical(cmp[i].Added)
			canonical(cmp[i].Removed)
		}
	}
	if !reflect.DeepEqual(cmp, want) {
		return got, fmt.Errorf("cycle %d: engine reported\n  %v\nsnapshot-diff oracle expects\n  %v", o.Now(), render(got), render(want))
	}
	return got, nil
}

func render(updates []core.Update) string {
	s := ""
	for _, u := range updates {
		s += fmt.Sprintf("q%d", u.Query)
		for _, side := range [][]core.Entry{u.Added, u.Removed} {
			s += " ["
			for _, en := range side {
				s += fmt.Sprintf(" p%d/%d=%g", en.T.ID, en.T.Seq, en.Score)
			}
			s += " ]"
		}
		s += "; "
	}
	return s
}

func (o *snapshotOracle) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	return o.check(o.Engine.Step(now, arrivals))
}

func (o *snapshotOracle) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]core.Update, error) {
	return o.check(o.Engine.StepUpdate(now, arrivals, deletions))
}

// TestReportMatchesSnapshotDiff replays the difftest scenario matrix —
// GenScenario crosses TMA/SMA/threshold/constrained queries with count and
// time windows, append-only and update streams, query churn, near-duplicate
// subscription sets and windows a single cycle overflows — through the
// engine under both processing orders, asserting after every cycle that
// the O(changes) reporter returns exactly the updates of the snapshot-diff
// it replaced.
func TestReportMatchesSnapshotDiff(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	kinds := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		s := difftest.GenScenario(seed)
		for _, spec := range append(slices.Clone(s.Initial), s.Cycles[0].Register...) {
			switch {
			case spec.Threshold != nil:
				kinds["threshold"]++
			case spec.Constraint != nil:
				kinds["constrained"]++
			default:
				kinds[spec.Policy.String()]++
			}
		}
		kinds[s.Mode.String()]++
		if s.Mode == core.AppendOnly {
			kinds[s.Window.Kind.String()+" window"]++
		}
		for _, deletionsFirst := range []bool{false, true} {
			opts := s.Options()
			opts.DeletionsFirst = deletionsFirst
			eng, err := core.NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := difftest.Replay(newSnapshotOracle(eng), s, difftest.ReplayConfig{}); err != nil {
				t.Fatalf("%v deletionsFirst=%v: %v", s, deletionsFirst, err)
			}
		}
	}
	// The matrix is only as good as its coverage: every axis must have
	// been drawn at least once.
	for _, k := range []string{"TMA", "SMA", "threshold", "constrained", "append-only", "update-stream", "count window", "time window"} {
		if kinds[k] == 0 {
			t.Errorf("scenario matrix never drew %s (%v)", k, kinds)
		}
	}
}

// edgeQueries is one query of every kind over two dimensions, loose enough
// that the handful of tuples the edge-case streams carry all matter.
func edgeQueries(mode core.StreamMode) []core.QuerySpec {
	thr := 0.4
	region := geom.Rect{Lo: geom.Vector{0, 0}, Hi: geom.Vector{0.9, 0.9}}
	specs := []core.QuerySpec{
		{F: geom.NewLinear(1, 1), K: 3, Policy: core.TMA},
		{F: geom.NewLinear(1, 2), K: 4, Policy: core.TMA, Constraint: &region},
		{F: geom.NewLinear(2, 1), Threshold: &thr},
	}
	if mode == core.AppendOnly {
		specs = append(specs, core.QuerySpec{F: geom.NewLinear(1, 1), K: 3, Policy: core.SMA})
	}
	return specs
}

func edgeEngine(t *testing.T, opts core.Options) *snapshotOracle {
	t.Helper()
	opts.Dims, opts.TargetCells = 2, 16
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := newSnapshotOracle(eng)
	for _, spec := range edgeQueries(opts.Mode) {
		if _, err := o.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// TestReportArriveAndLeaveInOneCycle: tuples that enter and leave the
// window within one cycle — a batch larger than the window under either
// processing order, and an update-stream deletion naming an arrival of the
// same cycle — must not surface in any update (for a threshold query the
// admit and the drop are both logged, and cancel).
func TestReportArriveAndLeaveInOneCycle(t *testing.T) {
	gen := stream.NewGenerator(stream.IND, 2, 21)
	for _, deletionsFirst := range []bool{false, true} {
		o := edgeEngine(t, core.Options{Window: window.Count(6), DeletionsFirst: deletionsFirst})
		for ts, r := range []int{4, 15, 2, 30, 6, 1, 13} {
			batch := gen.Batch(r, int64(ts))
			updates, err := o.Step(int64(ts), batch)
			if err != nil {
				t.Fatalf("deletionsFirst=%v cycle %d: %v", deletionsFirst, ts, err)
			}
			// The window keeps the last 6 arrivals; the rest of an
			// oversized batch never outlives its own cycle.
			transient := batch[:max(0, r-6)]
			for _, u := range updates {
				for _, en := range append(slices.Clone(u.Added), u.Removed...) {
					if slices.Contains(transient, en.T) {
						t.Fatalf("deletionsFirst=%v cycle %d: update names %v, which arrived and expired within the cycle", deletionsFirst, ts, en.T)
					}
				}
			}
		}
	}

	o := edgeEngine(t, core.Options{Mode: core.UpdateStream})
	var live []uint64
	for ts := int64(0); ts < 8; ts++ {
		batch := gen.Batch(10, ts)
		// Delete half of this cycle's own arrivals and a few older tuples.
		var del []uint64
		for _, tu := range batch[:5] {
			del = append(del, tu.ID)
		}
		if len(live) >= 3 {
			del, live = append(del, live[:3]...), live[3:]
		}
		for _, tu := range batch[5:] {
			live = append(live, tu.ID)
		}
		updates, err := o.StepUpdate(ts, batch, del)
		if err != nil {
			t.Fatalf("cycle %d: %v", ts, err)
		}
		for _, u := range updates {
			for _, en := range append(slices.Clone(u.Added), u.Removed...) {
				if slices.Contains(del[:5], en.T.ID) {
					t.Fatalf("cycle %d: update names tuple %v, inserted and deleted within the cycle", ts, en.T)
				}
			}
		}
	}
}

// TestReportTies: equal scores (every tuple on one anti-diagonal scores
// the same under x+y) leave the order to the sequence number, and an
// update stream that reuses sequence numbers leaves it to nothing — tied
// entries may sit in any order in the engine's lists, so the merge has to
// pair them by id. Compared against the oracle as sets per tied run.
func TestReportTies(t *testing.T) {
	diagonal := func(id, seq uint64, ts int64) *stream.Tuple {
		x := float64(id%7) / 10
		return &stream.Tuple{ID: id, Seq: seq, TS: ts, Vec: geom.Vector{x, 0.8 - x}}
	}

	o := edgeEngine(t, core.Options{Window: window.Count(5)})
	next := uint64(0)
	for ts := int64(0); ts < 12; ts++ {
		var batch []*stream.Tuple
		for i := 0; i < 1+int(ts%3); i++ {
			batch = append(batch, diagonal(next, next, ts))
			next++
		}
		if _, err := o.Step(ts, batch); err != nil {
			t.Fatalf("equal scores, cycle %d: %v", ts, err)
		}
	}

	o = edgeEngine(t, core.Options{Mode: core.UpdateStream})
	o.tiedSeqs = true
	next = 0
	var live []uint64
	for ts := int64(0); ts < 14; ts++ {
		var batch []*stream.Tuple
		for i := 0; i < 3; i++ {
			batch = append(batch, diagonal(next, 1, ts)) // every tuple carries sequence number 1
			live = append(live, next)
			next++
		}
		var del []uint64
		if ts%2 == 1 {
			// Drop from the middle, so the survivors of a tied run keep
			// changing places in the recomputed top lists.
			del = []uint64{live[len(live)/2], live[1]}
			live = slices.DeleteFunc(live, func(id uint64) bool { return slices.Contains(del, id) })
		}
		if _, err := o.StepUpdate(ts, batch, del); err != nil {
			t.Fatalf("reused sequence numbers, cycle %d: %v", ts, err)
		}
	}
}
