package recovery

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"topkmon/internal/core"
	"topkmon/internal/stream"
)

// The write-ahead log. One file per checkpoint directory, holding a fixed
// header followed by length+checksum framed records:
//
//	header: magic (8 bytes) | format version (u16 LE)
//	frame:  payload length (u32 LE) | crc32 of payload (u32 LE) | payload
//
// Record indexes are monotone across the WAL's whole lifetime, including
// checkpoint rotations (which truncate the body but keep counting) and
// reopenings (a reopened log derives its counter from the surviving
// records, so Restore floors it to the manifest watermark via
// EnsureNextIndex), so the manifest's watermark — the next index at
// checkpoint time — cleanly splits any WAL content into "already in the
// checkpoint" and "replay me". A torn final frame (crash mid-append) is
// silently truncated; a framing violation anywhere earlier is ErrCorrupt.

const (
	walMagic   = "TOPKWAL\x00"
	walVersion = 1
	// walHeaderSize is the byte length of the file header preserved by
	// rotation truncations.
	walHeaderSize = len(walMagic) + 2
	// walFrameOverhead is the per-record framing cost (length + checksum).
	walFrameOverhead = 8
	// maxWALRecord bounds a single record's payload; anything larger in a
	// length field is corruption, not data.
	maxWALRecord = 1 << 30
)

// Record kinds. Batch records are written ahead of applying the batch;
// register/unregister records are written after the operation succeeded
// (with the id it got); drop records are advisory accounting for batches
// the ingestion pipeline's admission governor shed and are never replayed.
const (
	RecordBatch = iota + 1
	RecordDrop
	RecordRegister
	RecordUnregister
)

// Record is one WAL entry.
type Record struct {
	Kind  int
	Index uint64

	// Batch / drop payload.
	Now       int64
	IsUpdate  bool
	Arrivals  []*stream.Tuple
	Deletions []uint64

	// Register / unregister payload. Spec is set on register records only.
	Query core.QueryID
	Spec  core.QuerySpec
}

// EncodeWALRecord serializes a record payload (framing excluded). It fails
// only for register records carrying a scoring function outside the
// serializable families.
func EncodeWALRecord(r Record) ([]byte, error) {
	var e enc
	if err := encodeWALRecord(&e, r); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// encodeWALRecord appends r's payload to e.buf.
func encodeWALRecord(e *enc, r Record) error {
	e.u8(byte(r.Kind))
	e.uvarint(r.Index)
	switch r.Kind {
	case RecordBatch, RecordDrop:
		e.varint(r.Now)
		e.boolean(r.IsUpdate)
		encodeTuples(e, r.Arrivals)
		e.uvarint(uint64(len(r.Deletions)))
		for _, id := range r.Deletions {
			e.uvarint(id)
		}
	case RecordRegister:
		e.uvarint(uint64(r.Query))
		if err := encodeSpec(e, r.Spec); err != nil {
			return err
		}
	case RecordUnregister:
		e.uvarint(uint64(r.Query))
	default:
		return fmt.Errorf("recovery: unknown WAL record kind %d", r.Kind)
	}
	return nil
}

// DecodeWALRecord parses one record payload (framing excluded). All
// structural failures wrap ErrCorrupt. It never panics and never
// allocates more than the payload length warrants, whatever the bytes —
// the property the fuzz target drives.
func DecodeWALRecord(payload []byte) (Record, error) {
	d := &dec{buf: payload}
	var r Record
	r.Kind = int(d.u8())
	r.Index = d.uvarint()
	switch r.Kind {
	case RecordBatch, RecordDrop:
		r.Now = d.varint()
		r.IsUpdate = d.boolean()
		r.Arrivals = decodeTuples(d)
		n := d.count(1)
		if d.err == nil && n > 0 {
			r.Deletions = make([]uint64, n)
			for i := range r.Deletions {
				r.Deletions[i] = d.uvarint()
			}
		}
	case RecordRegister:
		r.Query = core.QueryID(d.uvarint())
		r.Spec = decodeSpec(d)
	case RecordUnregister:
		r.Query = core.QueryID(d.uvarint())
	default:
		if d.err == nil {
			d.fail("unknown WAL record kind %d", r.Kind)
		}
	}
	if err := d.done(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// walFile is the part of *os.File the WAL writes through once the log is
// open, so tests can inject short writes and failing syscalls.
type walFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// maxRetainedFrame caps the frame buffer a WAL keeps between appends: a
// burst of oversized records must not pin its buffer for the log's life.
const maxRetainedFrame = 1 << 20

// WAL is an append-only record log. Appends are safe for concurrent use:
// the processing goroutine logs batches and query operations while the
// ingestion pipeline's producer goroutine logs drops.
type WAL struct {
	// mu guards the file, the offsets, the index counter and the frame
	// buffer. It nests inside every monitor lock (appenders call in with
	// their own serialization already established) and takes nothing
	// itself.
	mu   sync.Mutex //topk:lockrank 50 leaf
	f    walFile
	sync SyncPolicy
	next uint64
	// end is the offset just past the last committed frame: where the next
	// append starts, and where a failed append rolls the file back to.
	end int64
	// failed is set when a rollback itself failed (the file may end in a
	// partial frame, so every later append must fail rather than land
	// behind it) and by Close. A rotation, which truncates the body, clears
	// a rollback failure.
	failed error
	// frame is the reused encode buffer: frame header, then payload.
	frame enc
}

// OpenWAL opens (creating if absent) the log at path, validates the
// header, reads every intact record, truncates a torn tail, and returns
// the records together with a WAL positioned to append after them.
func OpenWAL(path string, pol SyncPolicy) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: open WAL: %w", err)
	}
	recs, end, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the torn tail (if any) so the next append starts on a frame
	// boundary.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("recovery: truncate WAL tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("recovery: seek WAL: %w", err)
	}
	w := &WAL{f: f, sync: pol, end: end}
	if n := len(recs); n > 0 {
		w.next = recs[n-1].Index + 1
	}
	return w, recs, nil
}

// scanWAL reads the header (writing it on a fresh file) and every intact
// frame, returning the records and the offset where appends resume. A
// frame that runs past EOF, or whose checksum fails right at EOF, is a
// torn append and ends the scan; a checksum failure with more data behind
// it is ErrCorrupt.
func scanWAL(f *os.File) ([]Record, int64, error) {
	buf, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("recovery: read WAL: %w", err)
	}
	if len(buf) == 0 {
		var hdr [walHeaderSize]byte
		copy(hdr[:], walMagic)
		binary.LittleEndian.PutUint16(hdr[len(walMagic):], walVersion)
		if _, err := f.Write(hdr[:]); err != nil {
			return nil, 0, fmt.Errorf("recovery: write WAL header: %w", err)
		}
		return nil, int64(walHeaderSize), nil
	}
	if len(buf) < walHeaderSize || string(buf[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("%w: WAL header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[len(walMagic):]); v != walVersion {
		return nil, 0, fmt.Errorf("%w: WAL format %d, this build reads %d", ErrVersion, v, walVersion)
	}
	var recs []Record
	off := walHeaderSize
	for off < len(buf) {
		if len(buf)-off < walFrameOverhead {
			return recs, int64(off), nil // torn length/checksum
		}
		n := binary.LittleEndian.Uint32(buf[off:])
		sum := binary.LittleEndian.Uint32(buf[off+4:])
		if n > maxWALRecord {
			return nil, 0, fmt.Errorf("%w: WAL frame length %d", ErrCorrupt, n)
		}
		end := off + walFrameOverhead + int(n)
		if end > len(buf) {
			return recs, int64(off), nil // torn payload
		}
		payload := buf[off+walFrameOverhead : end]
		if crc32.ChecksumIEEE(payload) != sum {
			if end == len(buf) {
				return recs, int64(off), nil // torn final frame
			}
			return nil, 0, fmt.Errorf("%w: WAL frame checksum at offset %d", ErrCorrupt, off)
		}
		rec, err := DecodeWALRecord(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("WAL record at offset %d: %w", off, err)
		}
		if len(recs) > 0 && rec.Index <= recs[len(recs)-1].Index {
			return nil, 0, fmt.Errorf("%w: WAL index %d not increasing", ErrCorrupt, rec.Index)
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, int64(off), nil
}

// NextIndex returns the index the next appended record will carry — the
// watermark a checkpoint stores to split the log.
func (w *WAL) NextIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// EnsureNextIndex raises the next-record index to at least floor. Restore
// calls it with the manifest watermark: a reopened log derives its
// counter from the surviving records, and after a rotation (or a clean
// Close) those sit below the watermark or are gone entirely, so without
// the floor new appends would reuse pre-checkpoint indexes and the next
// restore would silently skip them as already-checkpointed.
func (w *WAL) EnsureNextIndex(floor uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.next < floor {
		w.next = floor
	}
}

// Append assigns the record the next index, writes its frame with one
// Write, and — under SyncAlways — fsyncs before returning. The frame is
// encoded into a buffer the WAL keeps, so a steady stream of appends
// allocates nothing.
//
// An append either commits whole or leaves the log as it was: when the
// write or the fsync fails, the file is truncated back to the last
// committed frame, so a later append never lands behind a torn frame
// (which Restore would read as mid-log corruption). If that rollback fails
// too, the WAL refuses every further append.
func (w *WAL) Append(r Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	r.Index = w.next
	var hdr [walFrameOverhead]byte
	w.frame.buf = append(w.frame.buf[:0], hdr[:]...)
	err := encodeWALRecord(&w.frame, r)
	frame := w.frame.buf
	if cap(frame) > maxRetainedFrame {
		w.frame.buf = nil
	}
	if err != nil {
		return err
	}
	payload := frame[walFrameOverhead:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame); err != nil {
		return w.rollback(fmt.Errorf("recovery: append WAL record: %w", err))
	}
	if w.sync == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return w.rollback(fmt.Errorf("recovery: sync WAL: %w", err))
		}
	}
	w.end += int64(len(frame))
	w.next++
	return nil
}

// rollback truncates the file back to the last committed frame after a
// failed append and returns cause. Callers hold mu.
func (w *WAL) rollback(cause error) error {
	if err := w.f.Truncate(w.end); err != nil {
		w.failed = fmt.Errorf("%w (rollback: %v)", cause, err)
		return w.failed
	}
	if _, err := w.f.Seek(w.end, io.SeekStart); err != nil {
		w.failed = fmt.Errorf("%w (rollback: %v)", cause, err)
		return w.failed
	}
	return cause
}

// Rotate empties the log body after a successful checkpoint. The index
// counter keeps running: the manifest already recorded the watermark, so
// even a crash between the manifest rename and this truncation is safe —
// the stale records' indexes fall below the watermark and replay skips
// them.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return os.ErrClosed
	}
	if err := w.f.Truncate(int64(walHeaderSize)); err != nil {
		return fmt.Errorf("recovery: rotate WAL: %w", err)
	}
	w.end = int64(walHeaderSize)
	if _, err := w.f.Seek(w.end, io.SeekStart); err != nil {
		// The body is gone but the file position is unknown.
		w.failed = fmt.Errorf("recovery: rotate WAL: %w", err)
		return w.failed
	}
	w.failed = nil
	return nil
}

// Sync flushes appended records to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return os.ErrClosed
	}
	return w.f.Sync()
}

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	w.failed = os.ErrClosed
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
