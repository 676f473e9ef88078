package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBasicHitMiss(t *testing.T) {
	c := New("l1", 16, 4, false) // 4 sets x 4 ways
	if r := c.Access(0, false); r.Hit {
		t.Fatalf("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatalf("second access missed")
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", c.HitRate())
	}
	if c.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d, want 1", c.Occupancy())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("l1", 8, 2, false) // 4 sets x 2 ways
	// Addresses 0, 4, 8 map to set 0 (mask 3).
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false)      // 0 becomes MRU
	r := c.Access(8, false) // evicts LRU = 4
	if !r.Evicted {
		t.Fatalf("expected eviction")
	}
	if !c.Lookup(0) {
		t.Fatalf("LRU policy evicted the MRU line")
	}
	if c.Lookup(4) {
		t.Fatalf("line 4 should have been evicted")
	}
	if !c.Lookup(8) {
		t.Fatalf("line 8 should be resident")
	}
}

func TestWritebackVictim(t *testing.T) {
	c := New("l2", 8, 2, true) // write-back
	c.Access(0, true)          // dirty
	c.Access(4, false)
	r := c.Access(8, false) // evicts 0, which is dirty
	if !r.NeedsWriteback {
		t.Fatalf("dirty victim not reported")
	}
	if r.WritebackAddr != 0 {
		t.Fatalf("WritebackAddr = %d, want 0", r.WritebackAddr)
	}
	if c.Writebacks() != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks())
	}
}

func TestWritebackAddrReconstruction(t *testing.T) {
	c := New("l2", 64, 2, true) // 32 sets
	// Three addresses in set 5 with distinct tags.
	a1 := uint64(5 + 32)
	a2 := uint64(5 + 64)
	a3 := uint64(5 + 96)
	c.Access(a1, true)
	c.Access(a2, true)
	r := c.Access(a3, true)
	if !r.NeedsWriteback || r.WritebackAddr != a1 {
		t.Fatalf("WritebackAddr = %d, want %d", r.WritebackAddr, a1)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := New("l15", 8, 2, false)
	c.Access(0, true)
	c.Access(4, true)
	r := c.Access(8, true)
	if r.NeedsWriteback {
		t.Fatalf("write-through cache produced a writeback")
	}
	if dirty := c.Flush(); len(dirty) != 0 {
		t.Fatalf("write-through flush returned %d dirty lines", len(dirty))
	}
}

func TestFlush(t *testing.T) {
	c := New("l2", 16, 4, true)
	addrs := []uint64{1, 2, 3, 17}
	for _, a := range addrs {
		c.Access(a, true)
	}
	c.Access(5, false) // clean line
	dirty := c.Flush()
	if len(dirty) != len(addrs) {
		t.Fatalf("Flush returned %d dirty lines, want %d", len(dirty), len(addrs))
	}
	seen := map[uint64]bool{}
	for _, a := range dirty {
		seen[a] = true
	}
	for _, a := range addrs {
		if !seen[a] {
			t.Fatalf("dirty line %d missing from flush set %v", a, dirty)
		}
	}
	if c.Occupancy() != 0 {
		t.Fatalf("Occupancy after flush = %d", c.Occupancy())
	}
	if c.Lookup(1) {
		t.Fatalf("line survived flush")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("l1", 16, 4, true)
	c.Access(7, true)
	present, dirty := c.Invalidate(7)
	if !present || !dirty {
		t.Fatalf("Invalidate(7) = %v,%v; want true,true", present, dirty)
	}
	present, _ = c.Invalidate(7)
	if present {
		t.Fatalf("line present after invalidation")
	}
	if c.Lookup(7) {
		t.Fatalf("Lookup finds invalidated line")
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := New("l15", 16, 4, false)
	if c.Probe(9, false) {
		t.Fatalf("probe hit in empty cache")
	}
	if c.Occupancy() != 0 {
		t.Fatalf("Probe allocated")
	}
	if c.Accesses() != 0 {
		t.Fatalf("Probe counted as access")
	}
	c.Access(9, false)
	if !c.Probe(9, false) {
		t.Fatalf("probe missed resident line")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ lines, ways int }{{0, 1}, {8, 3}, {24, 2}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(lines=%d, ways=%d) did not panic", tc.lines, tc.ways)
				}
			}()
			New("bad", tc.lines, tc.ways, false)
		}()
	}
}

// referenceCache is a trivially correct LRU model used to validate Cache.
type referenceCache struct {
	sets  int
	ways  int
	order map[uint64][]uint64 // set -> addresses, MRU first
}

func newReference(lines, ways int) *referenceCache {
	return &referenceCache{sets: lines / ways, ways: ways, order: map[uint64][]uint64{}}
}

func (r *referenceCache) access(addr uint64) bool {
	set := addr % uint64(r.sets)
	lst := r.order[set]
	for i, a := range lst {
		if a == addr {
			copy(lst[1:i+1], lst[0:i])
			lst[0] = addr
			return true
		}
	}
	lst = append([]uint64{addr}, lst...)
	if len(lst) > r.ways {
		lst = lst[:r.ways]
	}
	r.order[set] = lst
	return false
}

// Property: Cache agrees exactly with the reference LRU model on a random
// access stream, for several geometries.
func TestLRUMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		geoms := []struct{ lines, ways int }{{16, 4}, {64, 16}, {32, 1}, {8, 8}}
		g := geoms[rng.Intn(len(geoms))]
		c := New("sut", g.lines, g.ways, false)
		ref := newReference(g.lines, g.ways)
		for i := 0; i < int(n); i++ {
			addr := uint64(rng.Intn(4 * g.lines))
			got := c.Access(addr, rng.Intn(2) == 0).Hit
			want := ref.access(addr)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity and a working set no larger
// than one set's ways (all mapping to the same set) never misses after the
// first touch.
func TestSetResidencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("sut", 64, 4, false) // 16 sets x 4 ways
		// 4 addresses that all map to set 3.
		addrs := []uint64{3, 3 + 16, 3 + 32, 3 + 48}
		for _, a := range addrs {
			c.Access(a, false)
		}
		for i := 0; i < 100; i++ {
			a := addrs[rng.Intn(len(addrs))]
			if !c.Access(a, false).Hit {
				return false
			}
		}
		return c.Occupancy() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	c := New("l1", 16, 4, false)
	c.Access(1, false)
	c.Access(1, false)
	c.ResetStats()
	if c.Accesses() != 0 || c.HitRate() != 0 {
		t.Fatalf("stats survived reset")
	}
	if !c.Lookup(1) {
		t.Fatalf("ResetStats cleared contents")
	}
}

// TestLineSize pins a cache line at one packed 8-byte word.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line(0)); got != 8 {
		t.Fatalf("line is %d bytes, want 8", got)
	}
}

var sink *Cache

// TestNewAllocsIndependentOfSets pins New at two allocations, the Cache and
// its flat line array, whatever the set count: there is no per-set slice.
func TestNewAllocsIndependentOfSets(t *testing.T) {
	for _, lines := range []int{16, 1024, 1 << 16} {
		allocs := testing.AllocsPerRun(20, func() { sink = New("c", lines, 16, true) })
		if allocs != 2 {
			t.Errorf("New with %d sets made %v allocations, want 2", lines/16, allocs)
		}
	}
}

// TestMaxTagRoundTrip drives the largest line address the simulator
// produces (workload.MaxFootprintLines-1, which is MaxTag) through a miss,
// a hit, a dirty eviction, an Invalidate and a Flush. On the one-set cache
// the tag is the whole address, the largest tag a packed line must hold.
func TestMaxTagRoundTrip(t *testing.T) {
	const top = uint64(MaxTag)
	for _, sets := range []int{1, 64} {
		c := New("l2", 2*sets, 2, true)
		step := uint64(sets) // same set, next tag down
		if c.Access(top, true).Hit || !c.Access(top, false).Hit || !c.Lookup(top) {
			t.Fatalf("%d sets: top address did not fill and hit", sets)
		}
		c.Access(top-step, false)
		r := c.Access(top-2*step, false)
		if !r.NeedsWriteback || r.WritebackAddr != top {
			t.Fatalf("%d sets: dirty victim writeback %v at %#x, want %#x", sets, r.NeedsWriteback, r.WritebackAddr, top)
		}
		c.Access(top, true)
		if present, dirty := c.Invalidate(top); !present || !dirty {
			t.Fatalf("%d sets: Invalidate(top) = %v, %v, want true, true", sets, present, dirty)
		}
		c.Access(top, true)
		if got := c.Flush(); !slices.Equal(got, []uint64{top}) {
			t.Fatalf("%d sets: Flush returned %#x, want [%#x]", sets, got, top)
		}
		if c.Occupancy() != 0 || c.Lookup(top) {
			t.Fatalf("%d sets: lines survived Flush", sets)
		}
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New("l2", 32768, 16, true)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(65536))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], i%4 == 0)
	}
}
