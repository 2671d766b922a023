package recovery

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"topkmon/internal/core"
	"topkmon/internal/shard"
	"topkmon/internal/stream"
)

// Checkpoint files. A checkpoint is one manifest plus one file per shard,
// all carrying the same epoch:
//
//	MANIFEST.ckpt          router-level state; atomically renamed last
//	shard-<i>.<epoch>.ckpt one engine's state
//
// Every file is framed identically:
//
//	magic (8 bytes) | version (u16 LE) | payload length (u64 LE) |
//	payload | crc32 of payload (u32 LE)
//
// and written tmp → fsync → rename → fsync(dir). Shard files are written
// before the manifest, so the manifest rename is the commit point: a
// crash at any earlier moment leaves the previous manifest (and its
// epoch's shard files) untouched. Stale epochs are deleted only after the
// rename.

const (
	ckptMagic = "TOPKCKPT"
	// ckptVersion 2 added the layoutDataSharded tuple-routing sections
	// (bucket table + divergent placements); 3 dropped the query-index
	// switch from the options block, and threshold snapshots carry no
	// influence cells.
	ckptVersion = 3
	// ckptHeaderSize is magic + version + payload length.
	ckptHeaderSize = len(ckptMagic) + 2 + 8
	manifestName   = "MANIFEST.ckpt"
	walName        = "wal.log"
)

// Monitor layouts a checkpoint can describe.
const (
	layoutEngine      = 1 // single core.Engine
	layoutSharded     = 2 // query-partitioned shard.Sharded
	layoutDataSharded = 3 // data-partitioned shard.DataSharded
)

// manifest is the decoded router-level state of a checkpoint.
type manifest struct {
	layout  byte
	epoch   uint64
	walNext uint64
	shards  int
	opts    core.Options
	aux     []byte

	// Shared stream state. For layoutEngine both live in the shard-0
	// file instead; for layoutSharded they are the broadcast window every
	// engine replicates; for layoutDataSharded the router's global window.
	clock core.Clock
	tail  []*stream.Tuple

	// layoutSharded routing table.
	globalNext core.QueryID
	routes     []shard.QueryRoute

	// layoutDataSharded router merge caches and tuple routing. The
	// routing table must be reinstated before the tail replays, so
	// re-ingested tuples land on the shards whose engine states the
	// checkpoint carries.
	routerQueries []shard.RouterQuery
	dataRoute     []int
	dataPins      []shard.TuplePlacement
}

// engineState is one engine's checkpointed identity (the shard-file
// payload). clock and tail are only populated for layouts where they are
// per-engine rather than shared.
type engineState struct {
	clock  core.Clock
	tail   []*stream.Tuple
	nextID core.QueryID
	ids    []core.QueryID
	snaps  []core.QuerySnapshot
}

// --- file framing ---

func writeCkptFile(path string, payload []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("recovery: create %s: %w", tmp, err)
	}
	frame := make([]byte, 0, ckptHeaderSize+len(payload)+4)
	frame = append(frame, ckptMagic...)
	frame = binary.LittleEndian.AppendUint16(frame, ckptVersion)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("recovery: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("recovery: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("recovery: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("recovery: rename %s: %w", tmp, err)
	}
	return syncDir(filepath.Dir(path))
}

func readCkptFile(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(buf) < ckptHeaderSize+4 || string(buf[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, name)
	}
	if v := binary.LittleEndian.Uint16(buf[len(ckptMagic):]); v != ckptVersion {
		return nil, fmt.Errorf("%w: %s: format %d, this build reads %d", ErrVersion, name, v, ckptVersion)
	}
	plen := binary.LittleEndian.Uint64(buf[len(ckptMagic)+2:])
	if plen != uint64(len(buf)-ckptHeaderSize-4) {
		return nil, fmt.Errorf("%w: %s: truncated", ErrCorrupt, name)
	}
	payload := buf[ckptHeaderSize : ckptHeaderSize+int(plen)]
	sum := binary.LittleEndian.Uint32(buf[ckptHeaderSize+int(plen):])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, name)
	}
	return payload, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("recovery: open dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("recovery: sync dir: %w", err)
	}
	return nil
}

func shardFileName(i int, epoch uint64) string {
	return fmt.Sprintf("shard-%d.%d.ckpt", i, epoch)
}

// --- manifest codec ---

func encodeManifest(m *manifest) ([]byte, error) {
	e := &enc{}
	e.u8(m.layout)
	e.uvarint(m.epoch)
	e.uvarint(m.walNext)
	e.uvarint(uint64(m.shards))
	encodeOptions(e, m.opts)
	e.bytes(m.aux)
	switch m.layout {
	case layoutEngine:
	case layoutSharded:
		encodeClock(e, m.clock)
		encodeTuples(e, m.tail)
		e.uvarint(uint64(m.globalNext))
		e.uvarint(uint64(len(m.routes)))
		for _, r := range m.routes {
			e.uvarint(uint64(r.Global))
			e.uvarint(uint64(r.Shard))
			e.uvarint(uint64(r.Local))
		}
	case layoutDataSharded:
		encodeClock(e, m.clock)
		encodeTuples(e, m.tail)
		e.uvarint(uint64(len(m.routerQueries)))
		for _, rq := range m.routerQueries {
			e.uvarint(uint64(rq.ID))
			if err := encodeSpec(e, rq.Spec); err != nil {
				return nil, err
			}
			encodeEntries(e, rq.LastReported)
		}
		e.uvarint(uint64(len(m.dataRoute)))
		for _, si := range m.dataRoute {
			e.uvarint(uint64(si))
		}
		e.uvarint(uint64(len(m.dataPins)))
		for _, p := range m.dataPins {
			e.uvarint(p.ID)
			e.uvarint(uint64(p.Shard))
		}
	default:
		return nil, fmt.Errorf("recovery: unknown layout %d", m.layout)
	}
	return e.buf, nil
}

func decodeManifest(payload []byte) (*manifest, error) {
	d := &dec{buf: payload}
	m := &manifest{}
	m.layout = d.u8()
	m.epoch = d.uvarint()
	m.walNext = d.uvarint()
	m.shards = int(d.uvarint())
	m.opts = decodeOptions(d)
	m.aux = append([]byte(nil), d.bytes()...)
	switch m.layout {
	case layoutEngine:
	case layoutSharded:
		m.clock = decodeClock(d)
		m.tail = decodeTuples(d)
		m.globalNext = core.QueryID(d.uvarint())
		n := d.count(3)
		for i := 0; i < n && d.err == nil; i++ {
			m.routes = append(m.routes, shard.QueryRoute{
				Global: core.QueryID(d.uvarint()),
				Shard:  int(d.uvarint()),
				Local:  core.QueryID(d.uvarint()),
			})
		}
	case layoutDataSharded:
		m.clock = decodeClock(d)
		m.tail = decodeTuples(d)
		r := newResolver(m.tail)
		n := d.count(3)
		for i := 0; i < n && d.err == nil; i++ {
			rq := shard.RouterQuery{ID: core.QueryID(d.uvarint())}
			rq.Spec = decodeSpec(d)
			rq.LastReported = decodeEntries(d, r)
			m.routerQueries = append(m.routerQueries, rq)
		}
		nr := d.count(1)
		for i := 0; i < nr && d.err == nil; i++ {
			m.dataRoute = append(m.dataRoute, int(d.uvarint()))
		}
		np := d.count(2)
		for i := 0; i < np && d.err == nil; i++ {
			m.dataPins = append(m.dataPins, shard.TuplePlacement{
				ID:    d.uvarint(),
				Shard: int(d.uvarint()),
			})
		}
	default:
		if d.err == nil {
			d.fail("unknown layout %d", m.layout)
		}
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.shards < 1 {
		return nil, fmt.Errorf("%w: manifest: %d shards", ErrCorrupt, m.shards)
	}
	return m, nil
}

// --- shard-file codec ---

func encodeShardState(layout byte, i int, epoch uint64, st *engineState) ([]byte, error) {
	e := &enc{}
	e.u8(layout)
	e.uvarint(uint64(i))
	e.uvarint(epoch)
	if layout == layoutEngine || layout == layoutDataSharded {
		encodeClock(e, st.clock)
	}
	if layout == layoutEngine {
		encodeTuples(e, st.tail)
	}
	e.uvarint(uint64(st.nextID))
	e.uvarint(uint64(len(st.ids)))
	for j, id := range st.ids {
		e.uvarint(uint64(id))
		if err := encodeSnapshot(e, st.snaps[j]); err != nil {
			return nil, fmt.Errorf("query %d: %w", id, err)
		}
	}
	return e.buf, nil
}

// decodeShardState parses a shard file. For layouts with a shared tail
// the caller passes the manifest's resolver; for layoutEngine the
// resolver is built from the file's own tail.
func decodeShardState(payload []byte, layout byte, i int, epoch uint64, r resolver) (*engineState, error) {
	d := &dec{buf: payload}
	st := &engineState{}
	if got := d.u8(); d.err == nil && got != layout {
		d.fail("shard file layout %d, manifest says %d", got, layout)
	}
	if got := d.uvarint(); d.err == nil && got != uint64(i) {
		d.fail("shard file index %d, expected %d", got, i)
	}
	if got := d.uvarint(); d.err == nil && got != epoch {
		d.fail("shard file epoch %d, manifest says %d", got, epoch)
	}
	if layout == layoutEngine || layout == layoutDataSharded {
		st.clock = decodeClock(d)
	}
	if layout == layoutEngine {
		st.tail = decodeTuples(d)
		r = newResolver(st.tail)
	}
	st.nextID = core.QueryID(d.uvarint())
	n := d.count(2)
	for j := 0; j < n && d.err == nil; j++ {
		st.ids = append(st.ids, core.QueryID(d.uvarint()))
		st.snaps = append(st.snaps, decodeSnapshot(d, r))
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("shard file %d: %w", i, err)
	}
	return st, nil
}

// --- collection (the checkpoint barrier) ---

// collectQueries exports an engine's query table and id watermark. It runs
// at a cycle barrier; an unfinished cycle makes ExportQuery fail, which
// fails the checkpoint rather than persisting a torn query.
func collectQueries(eng *core.Engine, st *engineState) error {
	st.nextID = eng.NextQueryID()
	for _, id := range eng.QueryIDs() {
		snap, err := eng.ExportQuery(id)
		if err != nil {
			return err
		}
		st.ids = append(st.ids, id)
		st.snaps = append(st.snaps, snap)
	}
	return nil
}

// collect snapshots the monitor into a manifest and per-shard states. It
// must run with no cycle in flight (the guard's contract).
func collect(mon core.StreamMonitor, epoch, walNext uint64, aux []byte) (*manifest, []*engineState, error) {
	m := &manifest{epoch: epoch, walNext: walNext, aux: aux}
	var states []*engineState
	switch inner := mon.(type) {
	case *core.Engine:
		m.layout = layoutEngine
		m.shards = 1
		m.opts = inner.Options()
		if m.opts.ExternalExpiry {
			return nil, nil, fmt.Errorf("recovery: cannot checkpoint an externally-expired engine; checkpoint its owner")
		}
		st := &engineState{clock: inner.ExportClock(), tail: inner.WindowTail()}
		if err := collectQueries(inner, st); err != nil {
			return nil, nil, err
		}
		states = []*engineState{st}
	case *shard.Sharded:
		m.layout = layoutSharded
		m.shards = inner.NumShards()
		m.opts = inner.Options()
		states = make([]*engineState, m.shards)
		err := inner.Barrier(func(i int, eng *core.Engine) error {
			if i == 0 {
				m.clock = eng.ExportClock()
				m.tail = eng.WindowTail()
			}
			st := &engineState{}
			states[i] = st
			return collectQueries(eng, st)
		})
		if err != nil {
			return nil, nil, err
		}
		m.globalNext, m.routes = inner.ExportRouting()
	case *shard.DataSharded:
		m.layout = layoutDataSharded
		m.shards = inner.NumShards()
		m.opts = inner.Options()
		m.clock = inner.ExportClock()
		m.tail = inner.GlobalTail()
		m.routerQueries = inner.ExportRouterQueries()
		m.dataRoute, m.dataPins = inner.ExportTupleRouting()
		states = make([]*engineState, m.shards)
		err := inner.Barrier(func(i int, eng *core.Engine) error {
			st := &engineState{clock: eng.ExportClock()}
			states[i] = st
			return collectQueries(eng, st)
		})
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("recovery: cannot checkpoint monitor type %T", mon)
	}
	return m, states, nil
}

// writeCheckpoint persists a collected checkpoint: shard files first, the
// manifest rename as the commit point, stale epochs removed last.
func writeCheckpoint(dir string, m *manifest, states []*engineState) error {
	for i, st := range states {
		payload, err := encodeShardState(m.layout, i, m.epoch, st)
		if err != nil {
			return err
		}
		if err := writeCkptFile(filepath.Join(dir, shardFileName(i, m.epoch)), payload); err != nil {
			return err
		}
	}
	payload, err := encodeManifest(m)
	if err != nil {
		return err
	}
	if err := writeCkptFile(filepath.Join(dir, manifestName), payload); err != nil {
		return err
	}
	removeStale(dir, m.epoch)
	return nil
}

// removeStale deletes shard files from older epochs and leftover temp
// files. Best-effort: the stale files are unreferenced either way.
func removeStale(dir string, epoch uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := fmt.Sprintf(".%d.ckpt", epoch)
	for _, de := range entries {
		name := de.Name()
		stale := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".ckpt") && !strings.HasSuffix(name, keep))
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// ReadAux returns the application blob the latest checkpoint manifest in
// dir carries, without rebuilding the monitor — what a facade reads first
// to learn how the full Restore must be configured.
func ReadAux(dir string) ([]byte, error) {
	payload, err := readCkptFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
		}
		return nil, err
	}
	m, err := decodeManifest(payload)
	if err != nil {
		return nil, err
	}
	return m.aux, nil
}

// readCheckpoint loads and validates the latest checkpoint in dir.
func readCheckpoint(dir string) (*manifest, []*engineState, error) {
	payload, err := readCkptFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
		}
		return nil, nil, err
	}
	m, err := decodeManifest(payload)
	if err != nil {
		return nil, nil, err
	}
	var shared resolver
	if m.layout != layoutEngine {
		shared = newResolver(m.tail)
	}
	states := make([]*engineState, m.shards)
	for i := range states {
		p, err := readCkptFile(filepath.Join(dir, shardFileName(i, m.epoch)))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, nil, fmt.Errorf("%w: missing %s", ErrCorrupt, shardFileName(i, m.epoch))
			}
			return nil, nil, err
		}
		states[i], err = decodeShardState(p, m.layout, i, m.epoch, shared)
		if err != nil {
			return nil, nil, err
		}
	}
	return m, states, nil
}

// --- restore ---

// replayTail re-ingests a window tail into a freshly built monitor with no
// queries registered: grouped Step calls per distinct timestamp under
// append-only streams (no expiration can fire — every tail tuple is valid
// at the exported clock, which is at or past every group timestamp), or a
// single StepUpdate batch under the explicit-deletion model (ascending
// sequence order satisfies admission; per-cell physical order is not
// transcript-visible).
func replayTail(mon core.StreamMonitor, mode core.StreamMode, clock core.Clock, tail []*stream.Tuple) error {
	if len(tail) == 0 {
		return nil
	}
	if mode == core.UpdateStream {
		if _, err := mon.StepUpdate(clock.Now, tail, nil); err != nil {
			return fmt.Errorf("recovery: tail replay: %w", err)
		}
		return nil
	}
	for start := 0; start < len(tail); {
		end := start + 1
		for end < len(tail) && tail[end].TS == tail[start].TS {
			end++
		}
		if _, err := mon.Step(tail[start].TS, tail[start:end]); err != nil {
			return fmt.Errorf("recovery: tail replay: %w", err)
		}
		start = end
	}
	return nil
}

// importQueries reinstalls a shard file's queries at their original ids
// and pins the id watermark.
func importQueries(eng *core.Engine, st *engineState) error {
	for j, id := range st.ids {
		if err := eng.ImportQueryAt(st.snaps[j], id); err != nil {
			return fmt.Errorf("recovery: import query %d: %w", id, err)
		}
	}
	if err := eng.SetNextQueryID(st.nextID); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	return nil
}

// buildMonitor reconstructs the checkpointed monitor: fresh construction
// under the recorded options, tail replay, exact clock pinning, query
// reinstatement at original ids, router state last.
func buildMonitor(m *manifest, states []*engineState, cfg shard.Config) (core.StreamMonitor, error) {
	switch m.layout {
	case layoutEngine:
		st := states[0]
		eng, err := core.NewEngine(m.opts)
		if err != nil {
			return nil, fmt.Errorf("recovery: rebuild engine: %w", err)
		}
		if err := replayTail(eng, m.opts.Mode, st.clock, st.tail); err != nil {
			return nil, err
		}
		eng.RestoreClock(st.clock)
		if err := importQueries(eng, st); err != nil {
			return nil, err
		}
		return eng, nil
	case layoutSharded:
		s, err := shard.NewWithConfig(m.opts, m.shards, cfg)
		if err != nil {
			return nil, fmt.Errorf("recovery: rebuild sharded monitor: %w", err)
		}
		if err := replayTail(s, m.opts.Mode, m.clock, m.tail); err != nil {
			s.Close()
			return nil, err
		}
		err = s.Barrier(func(i int, eng *core.Engine) error {
			eng.RestoreClock(m.clock)
			return importQueries(eng, states[i])
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		if err := s.RestoreRouting(m.globalNext, m.routes); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	case layoutDataSharded:
		d, err := shard.NewDataWithConfig(m.opts, m.shards, cfg.Rebalance)
		if err != nil {
			return nil, fmt.Errorf("recovery: rebuild data-sharded monitor: %w", err)
		}
		// The routing table must be live before the tail replays: replayed
		// arrivals then land on the same shards the checkpointed monitor
		// routed them to, matching the per-shard engine states below.
		if err := d.RestoreTupleRouting(m.dataRoute, m.dataPins); err != nil {
			d.Close()
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if err := replayTail(d, m.opts.Mode, m.clock, m.tail); err != nil {
			d.Close()
			return nil, err
		}
		d.RestoreClock(m.clock)
		err = d.Barrier(func(i int, eng *core.Engine) error {
			eng.RestoreClock(states[i].clock)
			return importQueries(eng, states[i])
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		if err := d.RestoreRouterQueries(m.routerQueries); err != nil {
			d.Close()
			return nil, err
		}
		return d, nil
	}
	return nil, fmt.Errorf("%w: layout %d", ErrCorrupt, m.layout)
}
