package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

func TestQueriesSnapshot(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(200), TargetCells: 100})
	thr := 1.7
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 5, Policy: TMA},
		{F: geom.NewLinear(1, 2), K: 8, Policy: SMA},
		{F: geom.NewLinear(2, 1), Threshold: &thr},
	}
	var ids []QueryID
	for _, s := range specs {
		id, err := e.Register(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	gen := stream.NewGenerator(stream.IND, 2, 50)
	for ts := 0; ts < 10; ts++ {
		if _, err := e.Step(int64(ts), gen.Batch(30, int64(ts))); err != nil {
			t.Fatal(err)
		}
	}

	infos := e.Queries()
	if len(infos) != 3 {
		t.Fatalf("snapshot has %d queries want 3", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].ID <= infos[i-1].ID {
			t.Fatalf("snapshot not ordered by id")
		}
	}

	tma, sma, thq := infos[0], infos[1], infos[2]
	if tma.Kind != "topk" || tma.ResultSize != 5 || tma.SkybandSize != 0 {
		t.Fatalf("TMA info wrong: %+v", tma)
	}
	if math.IsNaN(tma.TopScore) {
		t.Fatalf("TMA full result must expose a top score")
	}
	if sma.Kind != "topk" || sma.ResultSize != 8 || sma.SkybandSize < 8 {
		t.Fatalf("SMA info wrong: %+v", sma)
	}
	if thq.Kind != "threshold" || thq.TopScore != thr {
		t.Fatalf("threshold info wrong: %+v", thq)
	}
	res, _ := e.Result(ids[2])
	if thq.ResultSize != len(res) {
		t.Fatalf("threshold result size %d vs %d", thq.ResultSize, len(res))
	}
	for _, info := range infos {
		if info.InfluenceCells <= 0 {
			t.Fatalf("query %d reports no influence cells", info.ID)
		}
		if info.String() == "" {
			t.Fatalf("empty String()")
		}
	}
	if !strings.Contains(thq.String(), "threshold") {
		t.Fatalf("threshold String() missing kind: %s", thq.String())
	}

	// Influence cells from the snapshot must match the white-box count.
	for _, info := range infos {
		if got := e.InfluenceEntriesFor(info.ID); got != info.InfluenceCells {
			t.Fatalf("query %d: snapshot cells %d vs grid %d", info.ID, info.InfluenceCells, got)
		}
	}

	if _, err := e.QueryInfoFor(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryInfoFor(9999); err == nil {
		t.Fatalf("unknown id must fail")
	}
}

func TestQueriesSnapshotUnderfull(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(100), TargetCells: 64})
	id, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 50, Policy: TMA})
	gen := stream.NewGenerator(stream.IND, 2, 51)
	if _, err := e.Step(0, gen.Batch(5, 0)); err != nil {
		t.Fatal(err)
	}
	info, err := e.QueryInfoFor(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResultSize != 5 {
		t.Fatalf("underfull result size=%d", info.ResultSize)
	}
	if !math.IsNaN(info.TopScore) {
		t.Fatalf("underfull query must report NaN top score, got %g", info.TopScore)
	}
}

// TestUpdateStreamViewIntrospection: under update streams a TMA query's
// list is a view of up to DefaultKMax(k) entries, and QueryInfo, Result
// and the reported updates expose only its first k. ResultSize and
// TopScore describe the result (k entries, the kth score) and ViewSize the
// view; deleting a result tuple shrinks the view without a recomputation
// and the next entry moves up into the result.
func TestUpdateStreamViewIntrospection(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Mode: UpdateStream, TargetCells: 64})
	gen := stream.NewGenerator(stream.IND, 2, 51)
	if _, err := e.StepUpdate(0, gen.Batch(300, 0), nil); err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 5, 20}
	held := map[QueryID][]Entry{}
	var ids []QueryID
	for i, k := range ks {
		id, err := e.Register(QuerySpec{F: geom.NewLinear(1, float64(i+1)), K: k, Policy: TMA})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		held[id], _ = e.Result(id)
	}
	check := func(when string) {
		t.Helper()
		for i, id := range ids {
			k := ks[i]
			res, err := e.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			info, err := e.QueryInfoFor(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != k || info.ResultSize != k || info.TopScore != res[k-1].Score {
				t.Fatalf("%s: k=%d: Result holds %d, ResultSize %d, TopScore %v (kth %v)",
					when, k, len(res), info.ResultSize, info.TopScore, res[k-1].Score)
			}
			if info.ViewSize < k || info.ViewSize > DefaultKMax(k) {
				t.Fatalf("%s: k=%d: ViewSize %d outside [k, %d]", when, k, info.ViewSize, DefaultKMax(k))
			}
			if got, want := renderIDs(held[id]), renderIDs(res); got != want {
				t.Fatalf("%s: k=%d: updates rebuild %s, Result is %s", when, k, got, want)
			}
		}
	}
	check("after registration")
	for i, id := range ids {
		if info, _ := e.QueryInfoFor(id); info.ViewSize != DefaultKMax(ks[i]) {
			t.Fatalf("k=%d: a fresh view holds %d entries, want %d", ks[i], info.ViewSize, DefaultKMax(ks[i]))
		}
	}

	// Delete every query's best tuple: the views shrink by one, nothing
	// recomputes.
	var best []uint64
	for _, id := range ids {
		res, _ := e.Result(id)
		if !slices.Contains(best, res[0].T.ID) {
			best = append(best, res[0].T.ID)
		}
	}
	recomputes := e.Stats().Recomputes
	apply := func(ts int64, arrivals []*stream.Tuple, deletions []uint64) {
		t.Helper()
		updates, err := e.StepUpdate(ts, arrivals, deletions)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			held[u.Query] = rebuild(held[u.Query], u)
		}
	}
	apply(1, nil, best)
	if n := e.Stats().Recomputes - recomputes; n != 0 {
		t.Fatalf("deleting one result tuple per query recomputed %d times", n)
	}
	check("after deleting the best tuples")

	// Churn until the views have refilled a few times.
	var live []uint64
	for _, tu := range e.WindowTail() {
		live = append(live, tu.ID)
	}
	rng := rand.New(rand.NewSource(52))
	for ts := int64(2); ts < 40; ts++ {
		arrivals := gen.Batch(10, ts)
		var deletions []uint64
		for i := 0; i < 12; i++ {
			j := rng.Intn(len(live))
			deletions = append(deletions, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, a := range arrivals {
			live = append(live, a.ID)
		}
		apply(ts, arrivals, deletions)
		check(fmt.Sprintf("cycle %d", ts))
	}

	// Deleting the k=5 result twice over empties a view of at most 10
	// entries below k: only then does it refill.
	recomputes = e.Stats().Recomputes
	for ts := int64(40); ts < 42; ts++ {
		res, _ := e.Result(ids[1])
		var deletions []uint64
		for _, en := range res {
			deletions = append(deletions, en.T.ID)
		}
		apply(ts, nil, deletions)
		check(fmt.Sprintf("cycle %d", ts))
	}
	if e.Stats().Recomputes == recomputes {
		t.Fatal("emptying a view did not refill it")
	}
	if err := e.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
}

// rebuild applies one update to a held result, in descending total order.
func rebuild(held []Entry, u Update) []Entry {
	out := slices.DeleteFunc(slices.Clone(held), func(en Entry) bool {
		return slices.ContainsFunc(u.Removed, func(r Entry) bool { return r.T.ID == en.T.ID })
	})
	out = append(out, u.Added...)
	slices.SortFunc(out, EntryOrder)
	return out
}

func renderIDs(entries []Entry) string {
	var b strings.Builder
	for _, en := range entries {
		fmt.Fprintf(&b, " %d", en.T.ID)
	}
	return b.String()
}
