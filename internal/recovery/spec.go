package recovery

import (
	"fmt"

	"topkmon/internal/core"
	"topkmon/internal/geom"
	"topkmon/internal/skyband"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// Domain codecs: tuples, scoring functions, query specs, clocks, options
// and query snapshots. Tuples inside query state are serialized by id
// only and resolved against the reloaded window tail on decode — at a
// cycle barrier every tuple a query references is live in the tail, so a
// failed resolution is corruption, not a soft miss.

// Scoring-function families the codec understands. Custom
// geom.ScoringFunction implementations cannot be persisted and make the
// owning query's checkpoint fail with ErrUnsupportedFunction.
const (
	fnLinear    = 1
	fnProduct   = 2
	fnQuadratic = 3
)

func encodeFunc(e *enc, f geom.ScoringFunction) error {
	var kind byte
	var params []float64
	switch fn := f.(type) {
	case *geom.Linear:
		kind, params = fnLinear, fn.Weights()
	case *geom.Product:
		kind, params = fnProduct, fn.Offsets()
	case *geom.Quadratic:
		kind, params = fnQuadratic, fn.Weights()
	default:
		return fmt.Errorf("%w: %T", ErrUnsupportedFunction, f)
	}
	e.u8(kind)
	e.uvarint(uint64(len(params)))
	for _, p := range params {
		e.f64(p)
	}
	return nil
}

func decodeFunc(d *dec) geom.ScoringFunction {
	kind := d.u8()
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	params := make([]float64, n)
	for i := range params {
		params[i] = d.f64()
	}
	if d.err != nil {
		return nil
	}
	if n == 0 {
		d.fail("scoring function with no parameters")
		return nil
	}
	switch kind {
	case fnLinear:
		return geom.NewLinear(params...)
	case fnProduct:
		return geom.NewProduct(params...)
	case fnQuadratic:
		return geom.NewQuadratic(params...)
	default:
		d.fail("unknown scoring function family %d", kind)
		return nil
	}
}

func encodeSpec(e *enc, spec core.QuerySpec) error {
	if err := encodeFunc(e, spec.F); err != nil {
		return err
	}
	e.uvarint(uint64(spec.K))
	e.u8(byte(spec.Policy))
	e.boolean(spec.Constraint != nil)
	if spec.Constraint != nil {
		e.uvarint(uint64(spec.Constraint.Dims()))
		for _, v := range spec.Constraint.Lo {
			e.f64(v)
		}
		for _, v := range spec.Constraint.Hi {
			e.f64(v)
		}
	}
	e.boolean(spec.Threshold != nil)
	if spec.Threshold != nil {
		e.f64(*spec.Threshold)
	}
	return nil
}

func decodeSpec(d *dec) core.QuerySpec {
	var spec core.QuerySpec
	spec.F = decodeFunc(d)
	spec.K = int(d.uvarint())
	spec.Policy = core.Policy(d.u8())
	if d.boolean() {
		n := d.count(16)
		if d.err != nil {
			return spec
		}
		lo := make(geom.Vector, n)
		hi := make(geom.Vector, n)
		for i := range lo {
			lo[i] = d.f64()
		}
		for i := range hi {
			hi[i] = d.f64()
		}
		if d.err == nil {
			r, err := geom.NewRect(lo, hi)
			if err != nil {
				d.fail("bad constraint rect: %v", err)
			} else {
				spec.Constraint = &r
			}
		}
	}
	if d.boolean() {
		t := d.f64()
		spec.Threshold = &t
	}
	return spec
}

func encodeTuple(e *enc, t *stream.Tuple) {
	e.uvarint(t.ID)
	e.uvarint(t.Seq)
	e.varint(t.TS)
	e.uvarint(uint64(len(t.Vec)))
	for _, v := range t.Vec {
		e.f64(v)
	}
}

func decodeTuple(d *dec) *stream.Tuple {
	t := &stream.Tuple{ID: d.uvarint(), Seq: d.uvarint(), TS: d.varint()}
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	t.Vec = make(geom.Vector, n)
	for i := range t.Vec {
		t.Vec[i] = d.f64()
	}
	if d.err != nil {
		return nil
	}
	return t
}

func encodeTuples(e *enc, ts []*stream.Tuple) {
	e.uvarint(uint64(len(ts)))
	for _, t := range ts {
		encodeTuple(e, t)
	}
}

func decodeTuples(d *dec) []*stream.Tuple {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	out := make([]*stream.Tuple, 0, n)
	for i := 0; i < n; i++ {
		t := decodeTuple(d)
		if d.err != nil {
			return nil
		}
		out = append(out, t)
	}
	return out
}

// resolver maps tuple ids to the instances the restored monitor indexes.
// Query-state entries must share instances with the index — the engines
// compare tuples by pointer on expiry — so decoding resolves ids against
// the reloaded tail rather than materializing fresh copies.
type resolver map[uint64]*stream.Tuple

func newResolver(tail []*stream.Tuple) resolver {
	r := make(resolver, len(tail))
	for _, t := range tail {
		r[t.ID] = t
	}
	return r
}

func encodeEntry(e *enc, en core.Entry) {
	e.uvarint(en.T.ID)
	e.f64(en.Score)
}

func decodeEntry(d *dec, r resolver) core.Entry {
	id := d.uvarint()
	score := d.f64()
	if d.err != nil {
		return core.Entry{}
	}
	t, ok := r[id]
	if !ok {
		d.fail("entry references tuple %d not present in the tail", id)
		return core.Entry{}
	}
	return core.Entry{T: t, Score: score}
}

func encodeEntries(e *enc, entries []core.Entry) {
	e.uvarint(uint64(len(entries)))
	for _, en := range entries {
		encodeEntry(e, en)
	}
}

func decodeEntries(d *dec, r resolver) []core.Entry {
	n := d.count(9)
	if d.err != nil {
		return nil
	}
	out := make([]core.Entry, 0, n)
	for i := 0; i < n; i++ {
		en := decodeEntry(d, r)
		if d.err != nil {
			return nil
		}
		out = append(out, en)
	}
	return out
}

func encodeClock(e *enc, c core.Clock) {
	e.varint(c.Now)
	e.boolean(c.Started)
	e.boolean(c.HaveSeq)
	e.uvarint(c.LastSeq)
}

func decodeClock(d *dec) core.Clock {
	return core.Clock{Now: d.varint(), Started: d.boolean(), HaveSeq: d.boolean(), LastSeq: d.uvarint()}
}

func encodeOptions(e *enc, o core.Options) {
	e.uvarint(uint64(o.Dims))
	e.u8(byte(o.Window.Kind))
	e.uvarint(uint64(o.Window.N))
	e.varint(o.Window.Span)
	e.u8(byte(o.Mode))
	e.uvarint(uint64(o.GridRes))
	e.uvarint(uint64(o.TargetCells))
	e.boolean(o.DeletionsFirst)
	e.boolean(o.ExternalExpiry)
}

func decodeOptions(d *dec) core.Options {
	return core.Options{
		Dims:           int(d.uvarint()),
		Window:         window.Spec{Kind: window.Kind(d.u8()), N: int(d.uvarint()), Span: d.varint()},
		Mode:           core.StreamMode(d.u8()),
		GridRes:        int(d.uvarint()),
		TargetCells:    int(d.uvarint()),
		DeletionsFirst: d.boolean(),
		ExternalExpiry: d.boolean(),
	}
}

func encodeSnapshot(e *enc, snap core.QuerySnapshot) error {
	if err := encodeSpec(e, snap.Spec); err != nil {
		return err
	}
	e.uvarint(uint64(snap.Dims))
	e.uvarint(uint64(snap.GridRes))
	e.u8(byte(snap.Mode))
	e.f64(snap.TopScore)
	e.f64(snap.RegScore)
	encodeEntries(e, snap.Top)
	e.uvarint(uint64(len(snap.Skyband)))
	for _, sk := range snap.Skyband {
		e.uvarint(sk.T.ID)
		e.f64(sk.Score)
		e.uvarint(uint64(sk.DC))
	}
	// The retired threshold-result slot stays in the format, always empty.
	encodeEntries(e, nil)
	encodeEntries(e, snap.LastReported)
	// Influence cells (top-k queries only) ascend; delta-encode them.
	e.uvarint(uint64(len(snap.InfluenceCells)))
	prev := 0
	for _, idx := range snap.InfluenceCells {
		e.uvarint(uint64(idx - prev))
		prev = idx
	}
	e.varint(snap.Cost)
	return nil
}

func decodeSnapshot(d *dec, r resolver) core.QuerySnapshot {
	var snap core.QuerySnapshot
	snap.Spec = decodeSpec(d)
	snap.Dims = int(d.uvarint())
	snap.GridRes = int(d.uvarint())
	snap.Mode = core.StreamMode(d.u8())
	snap.TopScore = d.f64()
	snap.RegScore = d.f64()
	snap.Top = decodeEntries(d, r)
	nSky := d.count(10)
	if d.err != nil {
		return snap
	}
	for i := 0; i < nSky; i++ {
		id := d.uvarint()
		score := d.f64()
		dc := int(d.uvarint())
		if d.err != nil {
			return snap
		}
		t, ok := r[id]
		if !ok {
			d.fail("skyband entry references tuple %d not present in the tail", id)
			return snap
		}
		snap.Skyband = append(snap.Skyband, skyband.Entry{T: t, Score: score, DC: dc})
	}
	// Older checkpoints filled the retired slot with a threshold query's
	// result, and LastReported with the same set; ImportQuery ignores both
	// for a threshold query.
	decodeEntries(d, r)
	snap.LastReported = decodeEntries(d, r)
	nCells := d.count(1)
	if d.err != nil {
		return snap
	}
	prev := 0
	for i := 0; i < nCells; i++ {
		prev += int(d.uvarint())
		snap.InfluenceCells = append(snap.InfluenceCells, prev)
	}
	snap.Cost = d.varint()
	return snap
}
