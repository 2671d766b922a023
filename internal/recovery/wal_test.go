package recovery

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
)

// faultyFile is a walFile that injects failures into the file beneath it.
// tearNext makes the next Write put half its bytes on disk and then fail,
// the short write a full disk or a dying device produces; failTruncate and
// failSync make those calls fail until cleared.
type faultyFile struct {
	walFile
	tearNext     bool
	failTruncate bool
	failSync     bool
}

var errInjected = errors.New("injected fault")

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.tearNext {
		f.tearNext = false
		n, _ := f.walFile.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.walFile.Write(p)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.walFile.Truncate(size)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.walFile.Sync()
}

// openFaulty opens a fresh WAL in a temp dir with a faultyFile beneath it.
func openFaulty(t *testing.T, pol SyncPolicy) (*WAL, *faultyFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, err := OpenWAL(path, pol)
	if err != nil || len(recs) != 0 {
		t.Fatalf("OpenWAL: %v (%d records)", err, len(recs))
	}
	f := &faultyFile{walFile: w.f}
	w.f = f
	return w, f, path
}

func batchRecord(now int64, n int) Record {
	arrivals := make([]*stream.Tuple, n)
	for i := range arrivals {
		id := uint64(now)*1000 + uint64(i)
		arrivals[i] = &stream.Tuple{ID: id, Seq: id, TS: now, Vec: geom.Vector{float64(i) / float64(n), 0.5}}
	}
	return Record{Kind: RecordBatch, Now: now, Arrivals: arrivals}
}

// reopen closes w and reads the log back, failing on any error (a torn
// frame mid-log is ErrCorrupt).
func reopen(t *testing.T, w *WAL, path string) []Record {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	w2, recs, err := OpenWAL(path, SyncNone)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	w2.Close()
	return recs
}

func checkNows(t *testing.T, recs []Record, want ...int64) {
	t.Helper()
	if len(recs) != len(want) {
		t.Fatalf("log holds %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Now != want[i] || r.Index != uint64(i) || len(r.Arrivals) != 40 {
			t.Fatalf("record %d: now=%d index=%d arrivals=%d, want now=%d index=%d arrivals=40",
				i, r.Now, r.Index, len(r.Arrivals), want[i], i)
		}
	}
}

// TestTornAppendRollsBack: a Write that puts half a frame on disk and then
// fails is rolled back to the last committed frame, so the next append
// succeeds and the log reads back every committed record — instead of the
// partial frame stranding mid-log, where a later append behind it turns the
// whole lineage into ErrCorrupt.
func TestTornAppendRollsBack(t *testing.T) {
	w, f, path := openFaulty(t, SyncNone)
	for now := int64(1); now <= 2; now++ {
		if err := w.Append(batchRecord(now, 40)); err != nil {
			t.Fatalf("append %d: %v", now, err)
		}
	}
	f.tearNext = true
	if err := w.Append(batchRecord(3, 40)); !errors.Is(err, errInjected) {
		t.Fatalf("torn append returned %v, want the injected fault", err)
	}
	for now := int64(4); now <= 5; now++ {
		if err := w.Append(batchRecord(now, 40)); err != nil {
			t.Fatalf("append %d after the torn one: %v", now, err)
		}
	}
	checkNows(t, reopen(t, w, path), 1, 2, 4, 5)
}

// TestFailedSyncRollsBack: under SyncAlways a failed fsync fails the
// append, and the unsynced frame is rolled back too, so the log never
// holds a record its caller was told did not commit.
func TestFailedSyncRollsBack(t *testing.T) {
	w, f, path := openFaulty(t, SyncAlways)
	if err := w.Append(batchRecord(1, 40)); err != nil {
		t.Fatalf("append: %v", err)
	}
	f.failSync = true
	if err := w.Append(batchRecord(2, 40)); !errors.Is(err, errInjected) {
		t.Fatalf("append with a failing fsync returned %v", err)
	}
	f.failSync = false
	if err := w.Append(batchRecord(3, 40)); err != nil {
		t.Fatalf("append after the failed fsync: %v", err)
	}
	checkNows(t, reopen(t, w, path), 1, 3)
}

// TestFailedRollbackIsSticky: when the rollback itself fails, the file may
// end in a partial frame, so the WAL refuses every later append (which
// would land behind it) until a rotation truncates the body. The surviving
// log still reads back: the partial frame is its torn tail.
func TestFailedRollbackIsSticky(t *testing.T) {
	w, f, path := openFaulty(t, SyncNone)
	if err := w.Append(batchRecord(1, 40)); err != nil {
		t.Fatalf("append: %v", err)
	}
	f.tearNext, f.failTruncate = true, true
	if err := w.Append(batchRecord(2, 40)); !errors.Is(err, errInjected) {
		t.Fatalf("torn append returned %v", err)
	}
	f.failTruncate = false
	if err := w.Append(batchRecord(3, 40)); !errors.Is(err, errInjected) {
		t.Fatalf("append after a failed rollback returned %v, want the sticky failure", err)
	}
	checkNows(t, reopen(t, w, path), 1)

	// A rotation clears the failure.
	w, f, path = openFaulty(t, SyncNone)
	f.tearNext, f.failTruncate = true, true
	w.Append(batchRecord(1, 40))
	f.failTruncate = false
	if err := w.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := w.Append(batchRecord(2, 40)); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}
	recs := reopen(t, w, path)
	if len(recs) != 1 || recs[0].Now != 2 {
		t.Fatalf("rotated log holds %d records", len(recs))
	}
}

// TestAppendAfterCloseFails: a closed WAL rejects appends and syncs with
// an error rather than touching a closed file.
func TestAppendAfterCloseFails(t *testing.T) {
	w, _, _ := openFaulty(t, SyncNone)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(batchRecord(1, 40)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after close returned %v", err)
	}
	if err := w.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("sync after close returned %v", err)
	}
	if err := w.Rotate(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("rotate after close returned %v", err)
	}
}

// TestAppendFrameBytesUnchanged pins the on-disk format: an append writes
// exactly the length, the checksum and EncodeWALRecord's payload.
func TestAppendFrameBytesUnchanged(t *testing.T) {
	w, _, path := openFaulty(t, SyncNone)
	rec := batchRecord(7, 40)
	for i := 0; i < 3; i++ {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	want = append(want, walMagic...)
	want = append(want, walVersion, 0)
	for i := uint64(0); i < 3; i++ {
		rec.Index = i
		payload, err := EncodeWALRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = appendTestFrame(want, payload)
	}
	if string(got) != string(want) {
		t.Fatalf("WAL bytes differ from header + framed EncodeWALRecord payloads (%d vs %d bytes)", len(got), len(want))
	}
}

// appendTestFrame frames payload the way the log format specifies: length
// and CRC-32 (IEEE) of the payload, little-endian, then the payload.
func appendTestFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}
