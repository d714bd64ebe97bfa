// Package solvecache provides a canonicalization-keyed result cache
// for solves: a cache key that is invariant under job reordering, a
// small LRU store, and a singleflight group that coalesces concurrent
// solves of the same key onto one execution.
//
// The singleflight is cancellation-aware: the underlying solve runs
// under a context detached from any single caller, so one canceled
// request cannot abort a solve other requests are still waiting on.
// Only when every waiter has abandoned a flight is its context
// canceled and the solve interrupted.
package solvecache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/instance"
)

// Key is a canonical digest of (instance, algorithm, options). Two
// instances that differ only by job order map to the same key.
type Key [sha256.Size]byte

// CanonicalOrder returns the permutation that sorts in's jobs into
// canonical (release, deadline, processing) order: order[rank] is the
// index in in.Jobs of the job holding that canonical rank. Jobs that
// compare equal are interchangeable for scheduling, so any tie order
// is canonical. Callers use it both to derive the cache key and to
// translate schedules between a request's job order and the canonical
// one (instance.Permute / sched.Relabel).
func CanonicalOrder(in *instance.Instance) []int {
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := in.Jobs[order[a]], in.Jobs[order[b]]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		if ja.Deadline != jb.Deadline {
			return ja.Deadline < jb.Deadline
		}
		return ja.Processing < jb.Processing
	})
	return order
}

// Canonical is an instance together with its CanonicalOrder, sorted
// once: the exact digest, the structural digest and both cache keys
// all derive from it, so a request that needs several of them pays for
// one sort.
type Canonical struct {
	In    *instance.Instance
	Order []int
}

// Canonicalize sorts in's jobs into canonical order.
func Canonicalize(in *instance.Instance) Canonical {
	return Canonical{In: in, Order: CanonicalOrder(in)}
}

// Digest hashes the instance alone — capacity g plus the jobs in
// canonical order with IDs dropped — so any permutation of the same
// job multiset yields the same digest. It is the canonicalization
// shared by the replica-side cache key and the cluster router's
// cache-affinity placement: both sides derive the identical digest
// from a request body, which is what lands permuted copies of one
// instance on the replica already holding the solution.
func (c Canonical) Digest() Key {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wi(c.In.G)
	wi(int64(len(c.Order)))
	for _, idx := range c.Order {
		j := c.In.Jobs[idx]
		wi(j.Release)
		wi(j.Deadline)
		wi(j.Processing)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// StructuralDigest hashes only the window forest's *shape*: the
// distinct root windows of the laminar forest, in time order — no g,
// no job multiset. Raising g, or nesting extra jobs inside the
// existing forest, leaves the structural digest unchanged, which is
// exactly what makes it the near-miss index for warm starts: an exact
// cache miss can look up entries with the same structural digest and
// classify the delta against them.
func (c Canonical) StructuralDigest() Key {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	// Canonical order sorts windows by start, then end, so the last
	// window of each start group is its widest. That window is a root
	// iff it starts at or past every earlier window's end.
	var maxEnd int64
	first := true
	for i, idx := range c.Order {
		j := c.In.Jobs[idx]
		if i+1 < len(c.Order) && c.In.Jobs[c.Order[i+1]].Release == j.Release {
			continue
		}
		if first || j.Release >= maxEnd {
			wi(j.Release)
			wi(j.Deadline)
			first = false
		}
		if j.Deadline > maxEnd {
			maxEnd = j.Deadline
		}
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Key is the cache key for solving the instance with the named
// algorithm and option flags: the Digest re-hashed with everything
// else that changes the result. The flags must be passed in a fixed
// order by the caller; flags that do not change the solve's result
// (e.g. worker count) should be omitted.
func (c Canonical) Key(algorithm string, flags ...bool) Key {
	return mixKey(c.Digest(), algorithm, flags)
}

// StructKey is the structural analogue of Key: the StructuralDigest
// re-hashed with the algorithm and option flags, so near-miss lookups
// only surface entries solved the same way.
func (c Canonical) StructKey(algorithm string, flags ...bool) Key {
	return mixKey(c.StructuralDigest(), algorithm, flags)
}

// CanonicalDigest is Canonicalize(in).Digest().
func CanonicalDigest(in *instance.Instance) Key { return Canonicalize(in).Digest() }

// KeyFor is Canonicalize(in).Key(algorithm, flags...).
func KeyFor(in *instance.Instance, algorithm string, flags ...bool) Key {
	return Canonicalize(in).Key(algorithm, flags...)
}

// StructKeyFor is Canonicalize(in).StructKey(algorithm, flags...).
func StructKeyFor(in *instance.Instance, algorithm string, flags ...bool) Key {
	return Canonicalize(in).StructKey(algorithm, flags...)
}

func mixKey(d Key, algorithm string, flags []bool) Key {
	h := sha256.New()
	h.Write(d[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(algorithm)))
	h.Write(buf[:])
	h.Write([]byte(algorithm))
	for _, f := range flags {
		if f {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// WarmCarrier is optionally implemented by cached values that retain
// warm solver state. The cache byte-accounts the retained state and
// strips it — without evicting the result itself — to stay within
// SetWarmBudget. WarmBytes is read once at insert time; StripWarm must
// be idempotent and safe under concurrent readers of the value.
type WarmCarrier interface {
	WarmBytes() int64
	StripWarm()
}

func warmBytesOf(v any) int64 {
	if c, ok := v.(WarmCarrier); ok {
		return c.WarmBytes()
	}
	return 0
}

// Cache is a fixed-capacity LRU map from Key to V. It is safe for
// concurrent use. A capacity ≤ 0 disables the cache: Get always
// misses and Add is a no-op.
//
// Entries may additionally be indexed under a structural key
// (AddIndexed), making them discoverable by Similar for near-miss
// warm starts, and may carry byte-accounted warm solver state
// (WarmCarrier) bounded by SetWarmBudget.
type Cache[V any] struct {
	mu      sync.Mutex
	max     int
	ll      *list.List
	entries map[Key]*list.Element
	// index buckets exact keys by structural key, most recently added
	// first, so a near-miss lookup surfaces the freshest warmable
	// ancestors.
	index      map[Key][]Key
	warmBudget int64
	warmTotal  int64
	evictions  int64
}

type cacheEntry[V any] struct {
	key       Key
	structKey Key
	warmBytes int64
	val       V
}

// maxBucket bounds a structural-index bucket. Older keys fall off the
// bucket (losing near-miss discoverability, not cache residency).
const maxBucket = 8

// NewCache returns an LRU cache holding at most max entries. The warm
// budget starts at zero: retained warm state is stripped immediately
// unless SetWarmBudget grants bytes for it.
func NewCache[V any](max int) *Cache[V] {
	return &Cache[V]{
		max:     max,
		ll:      list.New(),
		entries: make(map[Key]*list.Element),
		index:   make(map[Key][]Key),
	}
}

// SetWarmBudget bounds the total bytes of retained warm state across
// all entries; state beyond the budget is stripped least recently used
// first. A budget ≤ 0 retains nothing.
func (c *Cache[V]) SetWarmBudget(b int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.warmBudget = b
	c.enforceWarmBudget()
}

// Get returns the cached value for k, refreshing its recency.
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	if c == nil || c.max <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Peek returns the cached value for k without refreshing its recency.
// The warm-start path uses it to inspect a candidate ancestor without
// promoting it.
func (c *Cache[V]) Peek(k Key) (V, bool) {
	var zero V
	if c == nil || c.max <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return zero, false
	}
	return el.Value.(*cacheEntry[V]).val, true
}

// Add stores v under k, evicting the least recently used entry when
// the cache is full.
func (c *Cache[V]) Add(k Key, v V) {
	c.AddIndexed(k, Key{}, v)
}

// AddIndexed is Add with a structural key: a non-zero structK also
// registers the entry in the near-miss index so Similar(structK) can
// find it. Warm state carried by v (WarmCarrier) is byte-accounted
// and stripped LRU-first whenever the warm budget is exceeded.
func (c *Cache[V]) AddIndexed(k, structK Key, v V) {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry[V])
		c.warmTotal -= e.warmBytes
		if e.structKey != structK {
			c.removeFromIndex(e.structKey, k)
		}
		e.val = v
		e.structKey = structK
		e.warmBytes = warmBytesOf(v)
		c.warmTotal += e.warmBytes
		c.addToIndex(structK, k)
		c.enforceWarmBudget()
		return
	}
	e := &cacheEntry[V]{key: k, structKey: structK, warmBytes: warmBytesOf(v), val: v}
	c.entries[k] = c.ll.PushFront(e)
	c.warmTotal += e.warmBytes
	c.addToIndex(structK, k)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		oe := oldest.Value.(*cacheEntry[V])
		delete(c.entries, oe.key)
		c.removeFromIndex(oe.structKey, oe.key)
		c.warmTotal -= oe.warmBytes
		c.evictions++
	}
	c.enforceWarmBudget()
}

// Similar returns the exact keys indexed under structK, most recently
// added first. All returned keys are currently resident.
func (c *Cache[V]) Similar(structK Key) []Key {
	if c == nil || c.max <= 0 || structK == (Key{}) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.index[structK]
	if len(b) == 0 {
		return nil
	}
	return append([]Key(nil), b...)
}

// StripWarmKey drops the warm state retained by entry k (if any),
// keeping the result cached. The warm-fallback path uses it so a
// near-miss never re-attempts a warm start from state that already
// failed once.
func (c *Cache[V]) StripWarmKey(k Key) {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.stripEntry(el.Value.(*cacheEntry[V]))
	}
}

// Stats returns the entry count, cumulative evictions, and bytes of
// retained warm state.
func (c *Cache[V]) Stats() (entries, evictions, warmBytes int64) {
	if c == nil || c.max <= 0 {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.ll.Len()), c.evictions, c.warmTotal
}

func (c *Cache[V]) stripEntry(e *cacheEntry[V]) {
	if e.warmBytes == 0 {
		return
	}
	if w, ok := any(e.val).(WarmCarrier); ok {
		w.StripWarm()
	}
	c.warmTotal -= e.warmBytes
	e.warmBytes = 0
}

// enforceWarmBudget strips warm state least recently used first until
// the total fits the budget. Called with c.mu held.
func (c *Cache[V]) enforceWarmBudget() {
	for el := c.ll.Back(); el != nil && c.warmTotal > c.warmBudget; el = el.Prev() {
		c.stripEntry(el.Value.(*cacheEntry[V]))
	}
}

// addToIndex prepends k to structK's bucket. Called with c.mu held.
func (c *Cache[V]) addToIndex(structK, k Key) {
	if structK == (Key{}) {
		return
	}
	b := c.index[structK]
	for i, kk := range b {
		if kk == k {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	b = append(b, Key{})
	copy(b[1:], b)
	b[0] = k
	if len(b) > maxBucket {
		b = b[:maxBucket]
	}
	c.index[structK] = b
}

// removeFromIndex drops k from structK's bucket. Called with c.mu
// held.
func (c *Cache[V]) removeFromIndex(structK, k Key) {
	if structK == (Key{}) {
		return
	}
	b := c.index[structK]
	for i, kk := range b {
		if kk == k {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(c.index, structK)
	} else {
		c.index[structK] = b
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	if c == nil || c.max <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Outcome classifies how Do satisfied a request.
type Outcome int

const (
	// Hit: the result came straight from the cache.
	Hit Outcome = iota
	// Miss: this call executed the solve.
	Miss
	// Coalesced: this call joined a solve already in flight.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Group combines the LRU cache with singleflight coalescing.
type Group[V any] struct {
	cache   *Cache[V]
	mu      sync.Mutex
	flights map[Key]*flight[V]
}

type flight[V any] struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	val     V
	err     error
}

// NewGroup returns a group backed by an LRU of the given capacity
// (≤ 0 disables result caching but keeps coalescing).
func NewGroup[V any](cacheEntries int) *Group[V] {
	return &Group[V]{
		cache:   NewCache[V](cacheEntries),
		flights: make(map[Key]*flight[V]),
	}
}

// Do returns the value for key k: from the cache when present, by
// joining an in-flight computation of the same key, or by invoking fn.
//
// fn runs on a context detached from ctx, so it outlives the caller
// that started it while anyone still waits; the detached context is
// canceled only when every waiter has left. When ctx is done before
// the flight completes, Do returns ctx.Err() immediately (the flight
// keeps running for the remaining waiters). Successful results are
// cached; errors are not.
func (g *Group[V]) Do(ctx context.Context, k Key, fn func(context.Context) (V, error)) (V, Outcome, error) {
	return g.DoIndexed(ctx, k, Key{}, fn)
}

// DoIndexed is Do with a structural key: a successful result is cached
// under k and, when structK is non-zero, registered in the near-miss
// index so later lookups can find it via Similar.
func (g *Group[V]) DoIndexed(ctx context.Context, k, structK Key, fn func(context.Context) (V, error)) (V, Outcome, error) {
	g.mu.Lock()
	if v, ok := g.cache.Get(k); ok {
		g.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := g.flights[k]; ok {
		f.waiters++
		g.mu.Unlock()
		return g.wait(ctx, k, f, Coalesced)
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight[V]{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.flights[k] = f
	g.mu.Unlock()

	go func() {
		v, err := fn(fctx)
		g.mu.Lock()
		f.val, f.err = v, err
		// An abandoned flight was already unregistered (and possibly
		// replaced by a fresh one); only remove the map entry if it is
		// still ours.
		if g.flights[k] == f {
			delete(g.flights, k)
		}
		if err == nil {
			g.cache.AddIndexed(k, structK, v)
		}
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return g.wait(ctx, k, f, Miss)
}

// Similar forwards to the backing cache's near-miss index.
func (g *Group[V]) Similar(structK Key) []Key { return g.cache.Similar(structK) }

// Peek forwards to the backing cache without refreshing recency.
func (g *Group[V]) Peek(k Key) (V, bool) { return g.cache.Peek(k) }

// StripWarmKey forwards to the backing cache.
func (g *Group[V]) StripWarmKey(k Key) { g.cache.StripWarmKey(k) }

// SetWarmBudget forwards to the backing cache.
func (g *Group[V]) SetWarmBudget(b int64) { g.cache.SetWarmBudget(b) }

// CacheStats forwards to the backing cache's Stats.
func (g *Group[V]) CacheStats() (entries, evictions, warmBytes int64) { return g.cache.Stats() }

func (g *Group[V]) wait(ctx context.Context, k Key, f *flight[V], o Outcome) (V, Outcome, error) {
	select {
	case <-f.done:
		return f.val, o, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			// Abandoned: cancel the doomed solve and unregister it so a
			// later caller starts a fresh flight instead of joining one
			// whose context is already canceled.
			f.cancel()
			if g.flights[k] == f {
				delete(g.flights, k)
			}
		}
		g.mu.Unlock()
		var zero V
		return zero, o, ctx.Err()
	}
}

// CacheLen returns the number of entries in the backing cache.
func (g *Group[V]) CacheLen() int { return g.cache.Len() }

// WaitersFor reports how many callers are attached to the in-flight
// computation of k (0 when none). Tests use it to sequence coalescing
// deterministically; it is not part of the steady-state API.
func (g *Group[V]) WaitersFor(k Key) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[k]; ok {
		return f.waiters
	}
	return 0
}
