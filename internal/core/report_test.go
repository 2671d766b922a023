package core

import (
	"fmt"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

func tup(id, seq uint64, x, y float64) *stream.Tuple {
	return &stream.Tuple{ID: id, Seq: seq, Vec: geom.Vector{x, y}}
}

func entries(score float64, tuples ...*stream.Tuple) []Entry {
	out := make([]Entry, len(tuples))
	for i, t := range tuples {
		out[i] = Entry{T: t, Score: score}
	}
	return out
}

func ids(es []Entry) string {
	s := ""
	for _, en := range es {
		s += fmt.Sprintf(" %d", en.T.ID)
	}
	return s
}

// TestDiffResults pins the merge on the inputs that tempt it to mis-pair:
// disjoint and interleaved lists, and runs tied under stream.Better (equal
// score and sequence number — an update stream may reuse sequence numbers,
// only ids are validated unique) whose members sit in different relative
// orders in the two lists. Identity is the tuple id, never the position.
func TestDiffResults(t *testing.T) {
	a, b, c, d := tup(1, 7, 0, 0), tup(2, 7, 0, 0), tup(3, 7, 0, 0), tup(4, 7, 0, 0)
	hi, lo := tup(10, 9, 0, 0), tup(11, 3, 0, 0)
	// A value copy of a tuple is still the same tuple.
	bCopy := *b
	for _, tc := range []struct {
		name             string
		last, cur        []Entry
		added, removed   string
		prefixA, prefixR int
	}{
		{name: "empty"},
		{name: "first result", cur: entries(1, a, b), added: " 1 2"},
		{name: "all gone", last: entries(1, a, b), removed: " 1 2"},
		{name: "unchanged", last: entries(1, a, b), cur: entries(1, a, b)},
		{name: "by id not pointer", last: entries(1, a, b), cur: entries(1, a, &bCopy)},
		{name: "tied run reordered", last: entries(1, a, b, c), cur: entries(1, c, a, b)},
		{name: "tied run, one swapped", last: entries(1, a, b), cur: entries(1, b, c), added: " 3", removed: " 1"},
		{name: "tied run, head replaced", last: entries(1, a, b), cur: entries(1, c, b), added: " 3", removed: " 1"},
		{name: "tied run shrinks", last: entries(1, a, b, c), cur: entries(1, c), removed: " 1 2"},
		{name: "tied run grows", last: entries(1, b), cur: entries(1, d, b, a), added: " 4 1"},
		{
			name:  "tied run between ordered neighbours",
			last:  append(append(entries(2, hi), entries(1, a, b)...), entries(0.5, lo)...),
			cur:   append(entries(1, b, c), entries(0.5, lo)...),
			added: " 3", removed: " 10 1",
		},
		{name: "appends after prefixes", last: entries(1, a), cur: entries(1, b), added: " 2", removed: " 1", prefixA: 2, prefixR: 1},
	} {
		added, removed := DiffResults(tc.last, tc.cur, make([]Entry, tc.prefixA), make([]Entry, tc.prefixR))
		if got := ids(added[tc.prefixA:]); got != tc.added {
			t.Errorf("%s: added%s, want%s", tc.name, got, tc.added)
		}
		if got := ids(removed[tc.prefixR:]); got != tc.removed {
			t.Errorf("%s: removed%s, want%s", tc.name, got, tc.removed)
		}
	}
}

// reportFixture is an engine over a full window with q TMA queries and q
// threshold queries, plus one spare tuple per query that the flip helper swaps
// in and out of the query's result behind the engine's back — a change
// for the reporter to find that costs the fixture no allocation.
type reportFixture struct {
	e       *Engine
	queries []*query
	spare   []Entry
	// held marks the threshold queries whose log last admitted their spare.
	held []bool
}

func newReportFixture(t *testing.T, q int) *reportFixture {
	t.Helper()
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(500), TargetCells: 64})
	gen := stream.NewGenerator(stream.IND, 2, 11)
	if _, err := e.Step(0, gen.Batch(500, 0)); err != nil {
		t.Fatal(err)
	}
	fx := &reportFixture{e: e}
	qg := stream.NewQueryGenerator(stream.FuncLinear, 2, 12)
	thr := -1.0 // everything matches: the largest result a reporter could be tempted to scan
	for i := 0; i < q; i++ {
		for _, spec := range []QuerySpec{{F: qg.Next(), K: 8, Policy: TMA}, {F: qg.Next(), Threshold: &thr}} {
			id, err := e.Register(spec)
			if err != nil {
				t.Fatal(err)
			}
			fx.queries = append(fx.queries, e.lookup(id))
			// Better than anything in the window, so it sorts first.
			fx.spare = append(fx.spare, Entry{T: tup(uint64(1e6+len(fx.spare)), uint64(1e6+len(fx.spare)), 1, 1), Score: 100})
		}
	}
	fx.held = make([]bool, len(fx.queries))
	return fx
}

// flip changes every query's result by one tuple and marks it dirty, the
// way a cycle's delivery would: the spare replaces a TMA query's best
// entry (and is swapped back on the next flip), and enters or leaves a
// threshold query's set through the change log.
func (fx *reportFixture) flip() {
	for i, q := range fx.queries {
		sp := &fx.spare[i]
		if q.kind == thresholdKind {
			head := &q.addHead
			if fx.held[i] {
				head = &q.remHead
			}
			fx.e.logThreshold(head, *sp)
			fx.held[i] = !fx.held[i]
		} else {
			q.top[0], *sp = *sp, q.top[0]
			q.topID[0] = q.top[0].T.ID
		}
		fx.e.markDirty(q)
	}
}

// TestFinishCycleAllocations pins the reporter's allocation contract: a
// cycle whose dirty queries turn out unchanged allocates nothing, and a
// cycle that reports anything allocates exactly twice — one arena for
// every payload, one update slice — however many updates it returns.
func TestFinishCycleAllocations(t *testing.T) {
	for _, q := range []int{1, 40} {
		fx := newReportFixture(t, q)
		fx.flip()
		if got := len(fx.e.finishCycle()); got != 2*q {
			t.Fatalf("q=%d: warm-up cycle reported %d updates, want %d", q, got, 2*q)
		}

		unchanged := testing.AllocsPerRun(50, func() {
			for _, qu := range fx.queries {
				fx.e.markDirty(qu)
			}
			if updates := fx.e.finishCycle(); updates != nil {
				t.Fatalf("unchanged cycle reported %d updates", len(updates))
			}
		})
		if unchanged != 0 {
			t.Errorf("q=%d: a cycle that changes no result allocates %v in finishCycle, want 0", q, unchanged)
		}

		var reported int
		changed := testing.AllocsPerRun(50, func() {
			fx.flip()
			reported = len(fx.e.finishCycle())
		})
		if reported != 2*q {
			t.Fatalf("q=%d: cycle reported %d updates, want %d", q, reported, 2*q)
		}
		if changed > 2 {
			t.Errorf("q=%d: a cycle with %d updates allocates %v in finishCycle, want <= 2", q, reported, changed)
		}
	}
}

// TestUpdatePayloadsDoNotAlias: the payloads of one cycle share a backing
// array, so each is capacity-clipped — appending to one must copy, never
// overwrite the entries of its neighbour.
func TestUpdatePayloadsDoNotAlias(t *testing.T) {
	fx := newReportFixture(t, 3)
	fx.flip()
	fx.e.finishCycle()
	fx.flip() // TMA queries now both gain and lose a tuple
	updates := fx.e.finishCycle()
	if len(updates) != 6 {
		t.Fatalf("got %d updates, want 6", len(updates))
	}
	want := renderUpdates(updates)
	intruder := Entry{T: tup(424242, 424242, 0, 0), Score: -1}
	for i := range updates {
		for _, side := range []*[]Entry{&updates[i].Added, &updates[i].Removed} {
			if len(*side) != cap(*side) {
				t.Errorf("update %d: payload has len %d but cap %d", i, len(*side), cap(*side))
			}
			_ = append(*side, intruder)
		}
	}
	if got := renderUpdates(updates); got != want {
		t.Fatalf("appending to a payload changed a neighbour:\n was %s\n now %s", want, got)
	}
}

// TestUnregisterDirtyQuery: a query unregistered while it is on the dirty
// list (its log records still pending) leaves nothing behind for the
// reporter to trip over, and its neighbours report normally.
func TestUnregisterDirtyQuery(t *testing.T) {
	fx := newReportFixture(t, 2)
	fx.flip()
	for _, victim := range fx.queries[:2] { // one TMA, one threshold
		if err := fx.e.Unregister(victim.id); err != nil {
			t.Fatal(err)
		}
	}
	updates := fx.e.finishCycle()
	if len(updates) != 2 || updates[0].Query != fx.queries[2].id || updates[1].Query != fx.queries[3].id {
		t.Fatalf("updates after unregistering two dirty queries: %v", updates)
	}
	// The surviving TMA query still holds the spare the flip swapped in
	// behind the engine's back; swap it out, since the checker also
	// compares top lists with the window.
	tma := fx.queries[2]
	tma.top[0], fx.spare[2] = fx.spare[2], tma.top[0]
	tma.topID[0] = tma.top[0].T.ID
	if err := fx.e.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
	// The next real cycle runs on clean reporting state.
	gen := stream.NewGenerator(stream.IND, 2, 13)
	batch := gen.Batch(20, 1)
	for i, tu := range batch {
		tu.ID, tu.Seq = uint64(5000+i), uint64(5000+i)
	}
	if _, err := fx.e.Step(1, batch); err != nil {
		t.Fatal(err)
	}
}
