// Package idtab implements Table, an open-addressed hash table from uint64
// keys to uint64 values. It is the tuple-id index of the explicit-deletion
// stream model (Section 7): a deletion names a tuple by id, and the grid
// resolves the id to the tuple's cell and slot through one Table, while the
// engine's per-cycle duplicate checks use two more.
//
// The layout is a single power-of-two array of 16-byte entries holding no
// pointers, so the garbage collector never scans it. Collisions resolve by
// linear probing; deletion shifts the rest of the probe run backward
// instead of leaving tombstones, so a table under steady churn never
// degrades. The load factor stays at most 1/2, and capacity only grows, by
// doubling, when an insertion would exceed it. At 3/4, the usual bound for
// linear probing, random keys already form runs past maxProbe (about 1%
// of absent lookups in a 2¹⁸-slot table walk further), which would switch
// benign tables to the slower keyed hash; at 1/2 the longest run in a
// 2²⁰-slot table of random keys is under 50.
//
// Keys hash by Fibonacci multiplication (k·φ⁻¹·2⁶⁴, top bits), which
// spreads sequential, random and power-of-two-strided ids evenly at the
// cost of one multiply. Fibonacci hashing is unkeyed, however, so a
// producer that picks its ids could pile them into one probe run; Go maps
// resist that by seeding every map. A Table therefore watches its walks: a
// Get, Put or Delete that probes more than maxProbe slots switches the
// table to a hash/maphash hash under a random seed, at the same capacity,
// for the rest of its life. Its contents and capacity do not depend on
// the seed, and a Table offers no iteration, so no output a caller derives
// from it can depend on which hash is in use.
package idtab

import "hash/maphash"

const (
	// minSlots is the capacity of the first allocation.
	minSlots = 8
	// maxProbe is the longest probe walk a Fibonacci-hashed table
	// tolerates before it switches to keyed hashing. Benign id streams
	// stay below it at load 1/2; an adversarial cluster crosses it after
	// a constant amount of wasted work.
	maxProbe = 64
	// used marks an occupied entry in the value word; the zero entry is
	// empty, so keys need no reserved value.
	used = 1 << 63
	// phi is 2⁶⁴/φ, the Fibonacci hashing multiplier.
	phi = 0x9E3779B97F4A7C15
	// entryBytes is the size of one slot.
	entryBytes = 16
)

// entry is one slot: a key and its value with the used bit set, or zero.
type entry struct {
	key uint64
	val uint64
}

// Table maps uint64 keys to values below 1<<63. The zero value is an
// empty table ready to use. A Table is not safe for concurrent use; Get
// may rehash the table (see the package comment), so even lookups need
// exclusive access.
type Table struct {
	slots []entry
	n     int
	shift uint // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	keyed bool
	seed  maphash.Seed
}

// Len returns the number of keys in the table.
func (t *Table) Len() int { return t.n }

// MemoryBytes returns the bytes the table's storage reserves.
func (t *Table) MemoryBytes() int64 { return int64(len(t.slots)) * entryBytes }

// home returns k's home slot.
func (t *Table) home(k uint64) int {
	if t.keyed {
		return t.keyedHome(k)
	}
	return int((k * phi) >> t.shift)
}

// keyedHome is home under keyed hashing, kept out of line so that the
// Fibonacci path inlines.
//
//go:noinline
func (t *Table) keyedHome(k uint64) int {
	return int(maphash.Comparable(t.seed, k) & uint64(len(t.slots)-1))
}

// find returns the slot holding k, or the empty slot that ends k's probe
// run with ok false. The table must have storage.
func (t *Table) find(k uint64) (i int, ok bool) {
	mask := len(t.slots) - 1
	i = t.home(k)
	for probes := 1; ; probes++ {
		e := &t.slots[i]
		if e.val == 0 {
			return i, false
		}
		if e.key == k {
			return i, true
		}
		if probes == maxProbe && !t.keyed {
			t.rekey(len(t.slots))
			i, probes = t.home(k), 0
			continue
		}
		i = (i + 1) & mask
	}
}

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (uint64, bool) {
	if t.n == 0 {
		return 0, false
	}
	i, ok := t.find(k)
	if !ok {
		return 0, false
	}
	return t.slots[i].val &^ used, true
}

// Put stores v under k, reporting whether k was absent before. v must be
// below 1<<63.
func (t *Table) Put(k, v uint64) bool {
	if v&used != 0 {
		panic("idtab: value uses the reserved top bit")
	}
	if len(t.slots) == 0 {
		t.resize(minSlots)
	}
	i, ok := t.find(k)
	if ok {
		t.slots[i].val = v | used
		return false
	}
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i, _ = t.find(k)
	}
	t.slots[i] = entry{key: k, val: v | used}
	t.n++
	return true
}

// Delete removes k, reporting whether it was present. The entries after
// k's slot in its probe run shift back into the hole, so lookups never
// walk over deleted slots.
func (t *Table) Delete(k uint64) bool {
	if t.n == 0 {
		return false
	}
	hole, ok := t.find(k)
	if !ok {
		return false
	}
	mask := len(t.slots) - 1
	probes := 0
	for j := (hole + 1) & mask; t.slots[j].val != 0; j = (j + 1) & mask {
		probes++
		// The entry at j may fill the hole when its home does not lie
		// cyclically within (hole, j]: its probe run then passes the hole.
		if (j-t.home(t.slots[j].key))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = entry{}
	t.n--
	if probes >= maxProbe && !t.keyed {
		t.rekey(len(t.slots))
	}
	return true
}

// Reset empties the table, keeping its storage and its hash.
func (t *Table) Reset() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}

// Rekey switches the table to keyed hashing now, as an over-long probe
// walk would. Lookups and every figure the table reports are unchanged;
// tests use it to show exactly that.
func (t *Table) Rekey() {
	if !t.keyed {
		t.rekey(len(t.slots))
	}
}

// rekey switches to a freshly seeded maphash hash and rehashes into the
// given capacity.
func (t *Table) rekey(slots int) {
	t.keyed = true
	t.seed = maphash.MakeSeed()
	t.resize(slots)
}

// resize rehashes every entry into fresh storage of the given capacity (a
// power of two). A Fibonacci-hashed table that meets an over-long walk
// while refilling switches to keyed hashing and rehashes again.
func (t *Table) resize(slots int) {
	old := t.slots
	t.slots = make([]entry, slots)
	t.shift = 64
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
	mask := slots - 1
	for _, e := range old {
		if e.val == 0 {
			continue
		}
		i, probes := t.home(e.key), 1
		for t.slots[i].val != 0 {
			i = (i + 1) & mask
			probes++
		}
		t.slots[i] = e
		if probes > maxProbe && !t.keyed {
			t.slots = old
			t.rekey(slots)
			return
		}
	}
}
