package solvecache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/instance"
)

// carrier is a WarmCarrier test double.
type carrier struct {
	bytes    int64
	stripped atomic.Bool
}

func (c *carrier) WarmBytes() int64 { return c.bytes }
func (c *carrier) StripWarm()       { c.stripped.Store(true) }

func key(b byte) Key  { var k Key; k[0] = b; return k }
func skey(b byte) Key { var k Key; k[31] = b; return k }

// windowSortDigest is the structural digest computed the direct way:
// windows sorted by (start asc, end desc), where a window opens a new
// root iff it starts at or past everything seen so far.
func windowSortDigest(in *instance.Instance) Key {
	type win struct{ s, e int64 }
	ws := make([]win, len(in.Jobs))
	for i, j := range in.Jobs {
		ws[i] = win{j.Release, j.Deadline}
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].s != ws[b].s {
			return ws[a].s < ws[b].s
		}
		return ws[a].e > ws[b].e
	})
	h := sha256.New()
	var buf [8]byte
	var maxEnd int64
	for i, w := range ws {
		if i == 0 || w.s >= maxEnd {
			for _, v := range []int64{w.s, w.e} {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
		maxEnd = max(maxEnd, w.e)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// TestStructuralDigestMatchesWindowSort: deriving the structural
// digest from the canonical job order (sorted by start, then end
// ascending) yields the same bytes as the direct window sort, on
// general and nested windows with shared starts, duplicates, touching
// roots and negative times.
func TestStructuralDigestMatchesWindowSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		jobs := make([]instance.Job, rng.Intn(12))
		for i := range jobs {
			r := int64(rng.Intn(12) - 4)
			jobs[i] = instance.Job{Processing: 1, Release: r, Deadline: r + 1 + int64(rng.Intn(6))}
		}
		in := instance.MustNew(1, jobs)
		if got, want := Canonicalize(in).StructuralDigest(), windowSortDigest(in); got != want {
			t.Fatalf("trial %d: %+v: digest %x, window sort %x", trial, jobs, got, want)
		}
	}
}

func TestStructuralDigestInvariants(t *testing.T) {
	base := instance.MustNew(2, []instance.Job{
		{Processing: 2, Release: 0, Deadline: 6},
		{Processing: 1, Release: 1, Deadline: 3},
		{Processing: 1, Release: 8, Deadline: 10},
	})
	d := Canonicalize(base).StructuralDigest()

	// Raised g: same structure.
	raised := base.Clone()
	raised.G = 5
	if Canonicalize(raised).StructuralDigest() != d {
		t.Error("raised g changed the structural digest")
	}

	// Extra job nested inside an existing root window: same structure.
	grown := instance.MustNew(2, append(append([]instance.Job(nil), base.Jobs...),
		instance.Job{Processing: 1, Release: 2, Deadline: 5}))
	if Canonicalize(grown).StructuralDigest() != d {
		t.Error("nested growth changed the structural digest")
	}

	// Job order: same structure.
	perm := instance.MustNew(2, []instance.Job{base.Jobs[2], base.Jobs[0], base.Jobs[1]})
	if Canonicalize(perm).StructuralDigest() != d {
		t.Error("permutation changed the structural digest")
	}

	// A genuinely new root window: different structure.
	outside := instance.MustNew(2, append(append([]instance.Job(nil), base.Jobs...),
		instance.Job{Processing: 1, Release: 20, Deadline: 22}))
	if Canonicalize(outside).StructuralDigest() == d {
		t.Error("new root window kept the structural digest")
	}

	// StructKeyFor separates algorithms and flags.
	if StructKeyFor(base, "a") == StructKeyFor(base, "b") {
		t.Error("algorithm not mixed into struct key")
	}
	if StructKeyFor(base, "a", true) == StructKeyFor(base, "a", false) {
		t.Error("flags not mixed into struct key")
	}
}

func TestSimilarIndex(t *testing.T) {
	c := NewCache[int](8)
	sk := skey(1)
	c.AddIndexed(key(1), sk, 10)
	c.AddIndexed(key(2), sk, 20)
	c.AddIndexed(key(3), skey(2), 30)

	got := c.Similar(sk)
	if len(got) != 2 || got[0] != key(2) || got[1] != key(1) {
		t.Fatalf("Similar = %v, want [key2 key1]", got)
	}
	if got := c.Similar(skey(9)); got != nil {
		t.Fatalf("Similar(unknown) = %v", got)
	}
	// Unindexed adds stay out of the index.
	c.Add(key(4), 40)
	if got := c.Similar(Key{}); got != nil {
		t.Fatalf("Similar(zero) = %v", got)
	}
}

func TestIndexCleanedOnEviction(t *testing.T) {
	c := NewCache[int](2)
	sk := skey(1)
	c.AddIndexed(key(1), sk, 10)
	c.AddIndexed(key(2), sk, 20)
	c.AddIndexed(key(3), sk, 30) // evicts key1
	got := c.Similar(sk)
	if len(got) != 2 || got[0] != key(3) || got[1] != key(2) {
		t.Fatalf("Similar after eviction = %v", got)
	}
	entries, evictions, _ := c.Stats()
	if entries != 2 || evictions != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", entries, evictions)
	}
}

func TestBucketCap(t *testing.T) {
	c := NewCache[int](64)
	sk := skey(1)
	for i := 0; i < maxBucket+4; i++ {
		c.AddIndexed(key(byte(i)), sk, i)
	}
	got := c.Similar(sk)
	if len(got) != maxBucket {
		t.Fatalf("bucket length %d, want %d", len(got), maxBucket)
	}
	if got[0] != key(byte(maxBucket+3)) {
		t.Fatalf("bucket head %v, want most recent", got[0])
	}
}

func TestWarmBudgetStripsLRUFirst(t *testing.T) {
	c := NewCache[*carrier](8)
	c.SetWarmBudget(250)
	a, b, d := &carrier{bytes: 100}, &carrier{bytes: 100}, &carrier{bytes: 100}
	c.AddIndexed(key(1), skey(1), a)
	c.AddIndexed(key(2), skey(1), b)
	if _, _, warm := c.Stats(); warm != 200 {
		t.Fatalf("warm bytes = %d, want 200", warm)
	}
	c.AddIndexed(key(3), skey(1), d) // 300 > 250: strip LRU (a)
	if !a.stripped.Load() {
		t.Fatal("LRU entry's warm state not stripped")
	}
	if b.stripped.Load() || d.stripped.Load() {
		t.Fatal("newer entries stripped before the LRU one")
	}
	if _, _, warm := c.Stats(); warm != 200 {
		t.Fatalf("warm bytes after strip = %d, want 200", warm)
	}
	// Shrinking the budget strips the rest.
	c.SetWarmBudget(0)
	if !b.stripped.Load() || !d.stripped.Load() {
		t.Fatal("budget shrink did not strip remaining warm state")
	}
	if _, _, warm := c.Stats(); warm != 0 {
		t.Fatalf("warm bytes = %d, want 0", warm)
	}
}

func TestZeroBudgetStripsImmediately(t *testing.T) {
	c := NewCache[*carrier](8)
	a := &carrier{bytes: 10}
	c.AddIndexed(key(1), skey(1), a)
	if !a.stripped.Load() {
		t.Fatal("default zero budget must strip on insert")
	}
}

func TestStripWarmKey(t *testing.T) {
	c := NewCache[*carrier](8)
	c.SetWarmBudget(1 << 20)
	a := &carrier{bytes: 10}
	c.AddIndexed(key(1), skey(1), a)
	c.StripWarmKey(key(1))
	if !a.stripped.Load() {
		t.Fatal("StripWarmKey did not strip")
	}
	if _, _, warm := c.Stats(); warm != 0 {
		t.Fatalf("warm bytes = %d, want 0", warm)
	}
	// Idempotent, and the value stays cached.
	c.StripWarmKey(key(1))
	if v, ok := c.Peek(key(1)); !ok || v != a {
		t.Fatal("value evicted by StripWarmKey")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := NewCache[int](2)
	c.Add(key(1), 1)
	c.Add(key(2), 2)
	c.Peek(key(1))   // must NOT promote key1
	c.Add(key(3), 3) // evicts key1 (still LRU)
	if _, ok := c.Peek(key(1)); ok {
		t.Fatal("Peek promoted the entry")
	}
	if _, ok := c.Peek(key(2)); !ok {
		t.Fatal("key2 wrongly evicted")
	}
}

func TestDoIndexedRegistersResult(t *testing.T) {
	g := NewGroup[int](8)
	sk := skey(7)
	v, out, err := g.DoIndexed(context.Background(), key(1), sk, func(context.Context) (int, error) {
		return 42, nil
	})
	if err != nil || v != 42 || out != Miss {
		t.Fatalf("DoIndexed = (%d, %v, %v)", v, out, err)
	}
	keys := g.Similar(sk)
	if len(keys) != 1 || keys[0] != key(1) {
		t.Fatalf("Similar after DoIndexed = %v", keys)
	}
	if v, ok := g.Peek(key(1)); !ok || v != 42 {
		t.Fatalf("Peek = (%d, %v)", v, ok)
	}
}
