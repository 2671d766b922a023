package recovery

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/shard"
	"topkmon/internal/window"
)

// routingSection encodes a data-sharded manifest's tuple-routing section
// the way builds with the tuple-routing rebalancer wrote it: the bucket
// table, then the pinned tuples as (id, shard) pairs.
func routingSection(table []int, pins [][2]uint64) []byte {
	e := &enc{}
	e.uvarint(uint64(len(table)))
	for _, si := range table {
		e.uvarint(uint64(si))
	}
	e.uvarint(uint64(len(pins)))
	for _, p := range pins {
		e.uvarint(p[0])
		e.uvarint(p[1])
	}
	return e.buf
}

// defaultTable is the bucket table those builds wrote for a lineage that
// never rebalanced: bucket b on shard b % shards.
func defaultTable(shards int) []int {
	table := make([]int, shard.TupleBuckets)
	for b := range table {
		table[b] = b % shards
	}
	return table
}

// rewriteRouting replaces the empty routing section this build writes at
// the end of dir's data-sharded manifest with section, re-framing the
// file so nothing else changes.
func rewriteRouting(t *testing.T, dir string, section []byte) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	payload, err := readCkptFile(path)
	if err != nil {
		t.Fatal(err)
	}
	empty := routingSection(nil, nil)
	if !bytes.HasSuffix(payload, empty) {
		t.Fatalf("manifest does not end with an empty routing section: % x", payload[len(payload)-4:])
	}
	payload = append(payload[:len(payload)-len(empty)], section...)
	if err := writeCkptFile(path, payload); err != nil {
		t.Fatal(err)
	}
}

// dataShardedLineage runs a checkpointed 3-shard data-partitioned monitor
// whose crash leaves 2 cycles in the WAL behind the last checkpoint, and
// returns the driver (reference engine and stream position) and the
// lineage directory.
func dataShardedLineage(t *testing.T) (*driver, string) {
	t.Helper()
	opts := core.Options{Dims: 2, Window: window.Count(300), TargetCells: 64}
	dir := t.TempDir()
	inner, err := shard.NewData(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(inner, dir, GuardOptions{Every: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(t, opts, g)
	specs := specsFor(opts)
	d.register(specs[0])
	d.register(specs[2]) // threshold: no router cache, its deltas are the shards' union
	d.register(specs[3])
	for i := 0; i < 6; i++ {
		d.cycle(60, 0)
	}
	d.checkState()
	if err := g.Abandon(); err != nil {
		t.Fatal(err)
	}
	return d, dir
}

// TestDataShardedRoutingRestore pins the data-sharded manifest's
// tuple-routing section across builds. Tuples route by hash, which is
// what the default bucket table of older builds computed, so a manifest
// carrying that table restores and the transcript stays identical to a
// never-crashed reference engine through a full window turnover. A table
// that moved buckets, or pinned tuples off their bucket, placed tuples
// where the hash would not: the lineage is refused as ErrVersion.
func TestDataShardedRoutingRestore(t *testing.T) {
	t.Run("default-table", func(t *testing.T) {
		d, dir := dataShardedLineage(t)
		rewriteRouting(t, dir, routingSection(defaultTable(3), nil))
		restored, _, err := Restore(dir, RestoreOptions{Every: 4})
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		d.mon = restored
		d.checkState()
		for i := 0; i < 7; i++ {
			d.cycle(60, 0)
		}
		d.checkState()
		if err := restored.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})

	t.Run("diverged", func(t *testing.T) {
		rotated := defaultTable(3)
		for b := range rotated {
			rotated[b] = (rotated[b] + 1) % 3
		}
		for name, section := range map[string][]byte{
			"rotated-table": routingSection(rotated, nil),
			"pinned-tuple":  routingSection(defaultTable(3), [][2]uint64{{5, 2}}),
			"short-table":   routingSection(defaultTable(3)[:16], nil),
		} {
			t.Run(name, func(t *testing.T) {
				_, dir := dataShardedLineage(t)
				rewriteRouting(t, dir, section)
				_, _, err := Restore(dir, RestoreOptions{Every: 4})
				if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "rebalancer") {
					t.Fatalf("got %v, want ErrVersion naming the rebalancer", err)
				}
			})
		}
	})
}
