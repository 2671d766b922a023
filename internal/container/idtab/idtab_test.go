package idtab

import (
	"math/rand"
	"testing"
)

// phiInv is the inverse of phi modulo 2⁶⁴: k·phi = i exactly for
// k = i·phiInv, which lets a test choose a key's Fibonacci home.
var phiInv = func() uint64 {
	// Newton's iteration doubles the correct low bits each step.
	x := uint64(phi)
	for i := 0; i < 6; i++ {
		x *= 2 - phi*x
	}
	return x
}()

// keyAtHome returns the i-th key whose Fibonacci home in a table of the
// given capacity is slot h: distinct keys for distinct i below
// 2^(64-log2 slots).
func keyAtHome(h, i uint64, slots int) uint64 {
	shift := uint(64)
	for s := slots; s > 1; s >>= 1 {
		shift--
	}
	return (h<<shift | i) * phiInv
}

// checkInvariants asserts the structural invariants: the count matches the
// occupied slots, the load factor holds, and every key is reachable from its
// home without crossing an empty slot (backward-shift deletion leaves no
// gap inside a probe run).
func checkInvariants(t *testing.T, tab *Table) {
	t.Helper()
	mask := len(tab.slots) - 1
	n := 0
	for i, e := range tab.slots {
		if e.val == 0 {
			continue
		}
		n++
		for j := tab.home(e.key); j != i; j = (j + 1) & mask {
			if tab.slots[j].val == 0 {
				t.Fatalf("key %d at slot %d unreachable: empty slot %d on its probe run", e.key, i, j)
			}
		}
	}
	if n != tab.n {
		t.Fatalf("count %d, occupied slots %d", tab.n, n)
	}
	if 2*tab.n > len(tab.slots) {
		t.Fatalf("load %d/%d above 1/2", tab.n, len(tab.slots))
	}
}

// presentProbes is what looking up every key costs: the sum over keys of
// the slots from home to the key's own, inclusive.
func presentProbes(tab *Table) int {
	mask := len(tab.slots) - 1
	total := 0
	for i, e := range tab.slots {
		if e.val != 0 {
			total += (i-tab.home(e.key))&mask + 1
		}
	}
	return total
}

// absentProbes is what looking up key costs when it is absent: the slots
// from its home to the empty slot ending the run, inclusive.
func absentProbes(tab *Table, key uint64) int {
	mask := len(tab.slots) - 1
	n := 1
	for i := tab.home(key); tab.slots[i].val != 0; i = (i + 1) & mask {
		n++
	}
	return n
}

// TestDifferentialAgainstMap drives random Put/Get/Delete/Reset sequences
// against a Go map: growth from empty, overwrites, deletions of present
// and absent keys, and a key space small enough that probe runs wrap
// around the end of the array and backward shifts cross it.
func TestDifferentialAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table
		if seed%3 == 0 {
			tab.Rekey()
		}
		ref := map[uint64]uint64{}
		space := uint64(1) << (4 + seed%10)
		key := func() uint64 {
			k := rng.Uint64() % space
			if seed%2 == 0 {
				k *= phiInv // every key shares Fibonacci home 0: the table goes keyed
			}
			return k
		}
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(100); {
			case r < 45:
				k, v := key(), rng.Uint64()>>1
				_, had := ref[k]
				if got := tab.Put(k, v); got == had {
					t.Fatalf("seed %d op %d: Put(%d) reported absent=%v, map had it=%v", seed, op, k, got, had)
				}
				ref[k] = v
			case r < 75:
				k := key()
				_, had := ref[k]
				if got := tab.Delete(k); got != had {
					t.Fatalf("seed %d op %d: Delete(%d) = %v, map had it=%v", seed, op, k, got, had)
				}
				delete(ref, k)
			case r < 99:
				k := key()
				want, had := ref[k]
				if got, ok := tab.Get(k); ok != had || got != want {
					t.Fatalf("seed %d op %d: Get(%d) = %d,%v want %d,%v", seed, op, k, got, ok, want, had)
				}
			default:
				tab.Reset()
				clear(ref)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, map %d", seed, op, tab.Len(), len(ref))
			}
		}
		checkInvariants(t, &tab)
		for k, want := range ref {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("seed %d: final Get(%d) = %d,%v want %d", seed, k, got, ok, want)
			}
		}
	}
}

// TestWrapAroundDeletion: a probe run that wraps from the last slot to the
// first keeps every key reachable when a member before the wrap leaves.
func TestWrapAroundDeletion(t *testing.T) {
	var tab Table
	tab.Put(0, 0) // allocate minSlots
	tab.Delete(0)
	last := uint64(len(tab.slots) - 1)
	keys := []uint64{keyAtHome(last, 1, minSlots), keyAtHome(last, 2, minSlots), keyAtHome(last, 3, minSlots), keyAtHome(0, 4, minSlots)}
	for i, k := range keys {
		tab.Put(k, uint64(i))
	}
	if tab.slots[0].key != keys[1] || tab.slots[2].key != keys[3] {
		t.Fatal("test keys did not form a wrapped run")
	}
	tab.Delete(keys[0])
	checkInvariants(t, &tab)
	for i, k := range keys[1:] {
		if v, ok := tab.Get(k); !ok || v != uint64(i+1) {
			t.Fatalf("key %d lost after the wrapped shift", i+1)
		}
	}
	if tab.keyed {
		t.Fatal("a short wrapped run switched the hash")
	}
}

// TestSharedHomeKeysSwitchToKeyedHash: keys that are multiples of φ⁻¹
// mod 2⁶⁴ all hash to Fibonacci slot 0. Inserting them switches the table
// to keyed hashing once a walk passes maxProbe, after which lookups cost a
// constant number of probes per key again.
func TestSharedHomeKeysSwitchToKeyedHash(t *testing.T) {
	const n = 1 << 15
	var tab Table
	for i := uint64(0); i < n; i++ {
		tab.Put(i*phiInv, i)
	}
	if !tab.keyed {
		t.Fatal("a single-home cluster did not switch the table to keyed hashing")
	}
	checkInvariants(t, &tab)
	if p := presentProbes(&tab); p > 4*n {
		t.Fatalf("looking up %d keys costs %d probes, bound %d", n, p, 4*n)
	}
	absent := 0
	for i := uint64(n); i < 2*n; i++ {
		absent += absentProbes(&tab, i*phiInv)
	}
	if absent > 8*n {
		t.Fatalf("%d absent lookups cost %d probes, bound %d", n, absent, 8*n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tab.Get(i * phiInv); !ok || v != i {
			t.Fatalf("key %d lost in the switch", i)
		}
	}
}

// TestConsecutiveHomeClusterSwitchesOnAbsentLookup: keys with consecutive
// Fibonacci homes each land on their home, so every Put walks one slot, but
// together they form one long run, and looking up an absent key homed at
// its start would walk all of it. That lookup switches the table.
func TestConsecutiveHomeClusterSwitchesOnAbsentLookup(t *testing.T) {
	const n = 1 << 14
	var tab Table
	// Grow the table to its final capacity with benign keys first, so the
	// crafted keys meet the capacity they were crafted for.
	for i := uint64(0); i < n; i++ {
		tab.Put(i, 0)
	}
	for i := uint64(0); i < n; i++ {
		tab.Delete(i)
	}
	slots := len(tab.slots)
	for h := uint64(0); h < n; h++ {
		tab.Put(keyAtHome(h, 1, slots), h)
	}
	if tab.keyed {
		t.Fatal("consecutive homes switched on Put; the cluster was meant to cost Put nothing")
	}
	if len(tab.slots) != slots {
		t.Fatal("the table grew; the crafted homes no longer apply")
	}
	if _, ok := tab.Get(keyAtHome(0, 2, slots)); ok {
		t.Fatal("absent key found")
	}
	if !tab.keyed {
		t.Fatal("an absent lookup over a long cluster did not switch the table")
	}
	checkInvariants(t, &tab)
	absent := 0
	for h := uint64(0); h < n; h++ {
		absent += absentProbes(&tab, keyAtHome(h, 2, slots))
	}
	if absent > 8*n {
		t.Fatalf("%d absent lookups cost %d probes after the switch, bound %d", n, absent, 8*n)
	}
}

// TestBenignKeysNeverSwitch: sequential, uniformly random and
// power-of-two-strided ids fill the table to its maximum load and churn
// through present and absent lookups and deletions without a walk ever
// passing maxProbe, so a benign stream keeps the cheaper Fibonacci hash.
func TestBenignKeysNeverSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	streams := []struct {
		name string
		next func(i uint64) uint64
	}{
		{"sequential", func(i uint64) uint64 { return i }},
		{"random", func(uint64) uint64 { return rng.Uint64() }},
		{"stride-2^8", func(i uint64) uint64 { return i << 8 }},
		{"stride-2^20", func(i uint64) uint64 { return i << 20 }},
		{"stride-2^32", func(i uint64) uint64 { return i << 32 }},
	}
	for _, st := range streams {
		name, next := st.name, st.next
		t.Run(name, func(t *testing.T) {
			var tab Table
			var keys []uint64
			i := uint64(0)
			add := func() {
				k := next(i)
				i++
				if tab.Put(k, 0) {
					keys = append(keys, k)
				}
			}
			// Fill a 2¹⁸-slot table to its maximum load, the worst case
			// before a doubling.
			for tab.Len() < 1<<17 {
				add()
			}
			for op := 0; op < 1<<17; op++ {
				j := rng.Intn(len(keys))
				tab.Get(keys[j])
				tab.Delete(keys[j])
				keys[j] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				tab.Get(next(i + 1<<40))
				add()
			}
			if tab.keyed {
				t.Fatalf("%s ids switched the table to keyed hashing", name)
			}
			checkInvariants(t, &tab)
		})
	}
}

// TestResizeSwitchesOnLongWalk: a doubling that would place an entry
// more than maxProbe slots from its home switches to keyed hashing
// instead. The run of 70 shared-home keys is laid out by hand, as no
// sequence of Puts reaches it without switching first.
func TestResizeSwitchesOnLongWalk(t *testing.T) {
	var tab Table
	tab.resize(256)
	for i := uint64(0); i < 70; i++ {
		tab.slots[i] = entry{key: i * phiInv, val: i | used}
		tab.n++
	}
	tab.resize(512)
	if !tab.keyed || len(tab.slots) != 512 {
		t.Fatalf("keyed=%v slots=%d after a resize with a 70-slot walk", tab.keyed, len(tab.slots))
	}
	checkInvariants(t, &tab)
	for i := uint64(0); i < 70; i++ {
		if v, ok := tab.Get(i * phiInv); !ok || v != i {
			t.Fatalf("key %d lost in the resize", i)
		}
	}
}

// TestRekeyKeepsContents: switching the hash changes neither lookups nor
// capacity.
func TestRekeyKeepsContents(t *testing.T) {
	var tab Table
	for i := uint64(0); i < 1000; i++ {
		tab.Put(i*7919, i)
	}
	slots := len(tab.slots)
	tab.Rekey()
	if !tab.keyed || len(tab.slots) != slots || tab.Len() != 1000 {
		t.Fatalf("after Rekey: keyed=%v slots %d→%d len %d", tab.keyed, slots, len(tab.slots), tab.Len())
	}
	checkInvariants(t, &tab)
	for i := uint64(0); i < 1000; i++ {
		if v, ok := tab.Get(i * 7919); !ok || v != i {
			t.Fatalf("key %d lost", i*7919)
		}
	}
	tab.Reset()
	if !tab.keyed || len(tab.slots) != slots || tab.Len() != 0 {
		t.Fatal("Reset dropped the storage or the hash")
	}
}

func TestPutRejectsReservedBit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a value with the top bit set was accepted")
		}
	}()
	var tab Table
	tab.Put(1, used)
}
