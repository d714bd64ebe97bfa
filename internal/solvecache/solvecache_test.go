package solvecache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/instance"
)

func testInstance(t *testing.T) *instance.Instance {
	t.Helper()
	in, err := instance.New(2, []instance.Job{
		{Processing: 2, Release: 0, Deadline: 6},
		{Processing: 1, Release: 1, Deadline: 3},
		{Processing: 3, Release: 0, Deadline: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestKeyPermutationInvariant: reordering jobs must not change the
// key — that is the whole point of the canonicalization.
func TestKeyPermutationInvariant(t *testing.T) {
	in := testInstance(t)
	base := KeyFor(in, "nested95", true, false)
	for _, perm := range [][]int{{1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if got := KeyFor(in.Permute(perm), "nested95", true, false); got != base {
			t.Fatalf("perm %v changed the key", perm)
		}
	}
}

// TestKeySensitivity: anything that can change the solve result must
// change the key.
func TestKeySensitivity(t *testing.T) {
	in := testInstance(t)
	base := KeyFor(in, "nested95", false, false)

	other := in.Clone()
	other.G = 3
	if KeyFor(other, "nested95", false, false) == base {
		t.Fatal("g must affect the key")
	}
	other = in.Clone()
	other.Jobs[0].Processing++
	if KeyFor(other, "nested95", false, false) == base {
		t.Fatal("processing must affect the key")
	}
	other = in.Clone()
	other.Jobs = other.Jobs[:2]
	if KeyFor(other, "nested95", false, false) == base {
		t.Fatal("job count must affect the key")
	}
	if KeyFor(in, "exact", false, false) == base {
		t.Fatal("algorithm must affect the key")
	}
	if KeyFor(in, "nested95", true, false) == base {
		t.Fatal("option flags must affect the key")
	}
}

// TestCacheLRU: the oldest entry is evicted; Get refreshes recency.
func TestCacheLRU(t *testing.T) {
	c := NewCache[int](2)
	k := func(b byte) Key { var k Key; k[0] = b; return k }
	c.Add(k(1), 1)
	c.Add(k(2), 2)
	if _, ok := c.Get(k(1)); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.Add(k(3), 3)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if v, ok := c.Get(k(1)); !ok || v != 1 {
		t.Fatalf("entry 1: %v %v", v, ok)
	}
	if v, ok := c.Get(k(3)); !ok || v != 3 {
		t.Fatalf("entry 3: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d", c.Len())
	}
}

// TestCacheDisabled: capacity ≤ 0 never stores anything.
func TestCacheDisabled(t *testing.T) {
	c := NewCache[int](0)
	var k Key
	c.Add(k, 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("disabled cache returned a value")
	}
	if c.Len() != 0 {
		t.Fatalf("len=%d", c.Len())
	}
}

// TestGroupHitAfterMiss: the second Do of the same key is served from
// the cache without re-invoking fn.
func TestGroupHitAfterMiss(t *testing.T) {
	g := NewGroup[int](4)
	var calls atomic.Int64
	fn := func(context.Context) (int, error) {
		calls.Add(1)
		return 42, nil
	}
	var k Key
	v, o, err := g.Do(context.Background(), k, fn)
	if err != nil || v != 42 || o != Miss {
		t.Fatalf("first Do: v=%d o=%v err=%v", v, o, err)
	}
	v, o, err = g.Do(context.Background(), k, fn)
	if err != nil || v != 42 || o != Hit {
		t.Fatalf("second Do: v=%d o=%v err=%v", v, o, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn called %d times", n)
	}
}

// TestGroupErrorNotCached: a failed flight must not populate the
// cache; the next Do re-executes.
func TestGroupErrorNotCached(t *testing.T) {
	g := NewGroup[int](4)
	var calls atomic.Int64
	boom := errors.New("boom")
	fn := func(context.Context) (int, error) {
		calls.Add(1)
		return 0, boom
	}
	var k Key
	if _, _, err := g.Do(context.Background(), k, fn); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if _, _, err := g.Do(context.Background(), k, fn); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn called %d times, want 2", n)
	}
	if g.CacheLen() != 0 {
		t.Fatal("error was cached")
	}
}

// TestGroupCoalesce: concurrent Dos of one key run fn exactly once;
// all callers get the value, one as Miss and the rest as Coalesced.
func TestGroupCoalesce(t *testing.T) {
	g := NewGroup[int](4)
	const waiters = 8
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	fn := func(context.Context) (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, nil
	}
	var k Key
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	errs := make([]error, waiters)
	vals := make([]int, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], outcomes[0], errs[0] = g.Do(context.Background(), k, fn)
	}()
	<-started // the leader's flight is registered
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], outcomes[i], errs[i] = g.Do(context.Background(), k, fn)
		}()
	}
	// Late joiners must find the in-flight entry, not start their own:
	// wait until all are registered as waiters before releasing.
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		f, ok := g.flights[k]
		return ok && f.waiters == waiters
	})
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn called %d times", n)
	}
	nMiss, nCo := 0, 0
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || vals[i] != 7 {
			t.Fatalf("waiter %d: v=%d err=%v", i, vals[i], errs[i])
		}
		switch outcomes[i] {
		case Miss:
			nMiss++
		case Coalesced:
			nCo++
		}
	}
	if nMiss != 1 || nCo != waiters-1 {
		t.Fatalf("outcomes: %d miss, %d coalesced", nMiss, nCo)
	}
}

// TestGroupFlightSurvivesOneCancellation: a canceled waiter leaves,
// but the flight keeps running for the others.
func TestGroupFlightSurvivesOneCancellation(t *testing.T) {
	g := NewGroup[int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(fctx context.Context) (int, error) {
		close(started)
		select {
		case <-release:
			return 9, nil
		case <-fctx.Done():
			return 0, fctx.Err()
		}
	}
	var k Key
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), k, fn)
		done <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, k, fn)
		joined <- err
	}()
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		f, ok := g.flights[k]
		return ok && f.waiters == 2
	})
	cancel()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err=%v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	if g.CacheLen() != 1 {
		t.Fatal("successful flight must fill the cache")
	}
}

// TestGroupAllWaitersGoneCancelsFlight: once every waiter abandons a
// flight, its detached context fires and the solve stops.
func TestGroupAllWaitersGoneCancelsFlight(t *testing.T) {
	g := NewGroup[int](4)
	started := make(chan struct{})
	flightCanceled := make(chan struct{})
	fn := func(fctx context.Context) (int, error) {
		close(started)
		<-fctx.Done()
		close(flightCanceled)
		return 0, fctx.Err()
	}
	var k Key
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, k, fn)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v", err)
	}
	<-flightCanceled // would hang forever if the flight ctx never fired
	// The failed flight must not be cached and must be fully removed.
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.flights) == 0
	})
	if g.CacheLen() != 0 {
		t.Fatal("canceled flight was cached")
	}
}

// TestGroupAbandonedFlightRestartsFresh: once the last waiter leaves
// a flight, a new caller must start a fresh flight rather than join
// the doomed one (regression: the abandoned flight stayed registered
// until its fn returned, and a caller arriving in that window got the
// abandoned flight's context.Canceled despite a live context of its
// own).
func TestGroupAbandonedFlightRestartsFresh(t *testing.T) {
	g := NewGroup[int](4)
	var calls atomic.Int64
	firstStarted := make(chan struct{})
	holdFirst := make(chan struct{}) // keeps the doomed fn from returning
	fn := func(fctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(firstStarted)
			<-fctx.Done() // abandoned: detached context fires
			<-holdFirst   // pin the abandonment window open
			return 0, fctx.Err()
		}
		return 5, nil
	}
	var k Key
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx1, k, fn)
		done1 <- err
	}()
	<-firstStarted
	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter: err=%v", err)
	}
	// The doomed fn is still running; a fresh caller must not inherit
	// its fate.
	v, o, err := g.Do(context.Background(), k, fn)
	if err != nil || v != 5 || o != Miss {
		t.Fatalf("post-abandonment Do: v=%d o=%v err=%v, want 5/miss/nil", v, o, err)
	}
	close(holdFirst)
}

// TestGroupLateReturnKeepsNewFlight: when an abandoned flight's fn
// finally returns, it must not unregister the fresh flight that
// replaced it under the same key — later callers still coalesce onto
// the live flight.
func TestGroupLateReturnKeepsNewFlight(t *testing.T) {
	g := NewGroup[int](4)
	var calls atomic.Int64
	firstStarted := make(chan struct{})
	holdFirst := make(chan struct{})
	secondStarted := make(chan struct{})
	release2 := make(chan struct{})
	fn := func(fctx context.Context) (int, error) {
		switch calls.Add(1) {
		case 1:
			close(firstStarted)
			<-fctx.Done()
			<-holdFirst
			return 0, fctx.Err()
		default:
			close(secondStarted)
			<-release2
			return 7, nil
		}
	}
	var k Key
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx1, k, fn)
		done1 <- err
	}()
	<-firstStarted
	g.mu.Lock()
	f1 := g.flights[k]
	g.mu.Unlock()
	cancel1()
	<-done1

	// Fresh flight under the same key, still in progress.
	done2 := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), k, fn)
		done2 <- err
	}()
	<-secondStarted

	// Let the doomed fn return and its completion goroutine run.
	close(holdFirst)
	<-f1.done
	g.mu.Lock()
	_, stillThere := g.flights[k]
	g.mu.Unlock()
	if !stillThere {
		t.Fatal("late return of the abandoned flight evicted the live flight")
	}
	// A third caller coalesces onto the live flight instead of solving
	// again.
	done3 := make(chan struct {
		o   Outcome
		err error
	}, 1)
	go func() {
		_, o, err := g.Do(context.Background(), k, fn)
		done3 <- struct {
			o   Outcome
			err error
		}{o, err}
	}()
	waitFor(t, func() bool { return g.WaitersFor(k) == 2 })
	close(release2)
	if err := <-done2; err != nil {
		t.Fatalf("live flight waiter: %v", err)
	}
	r3 := <-done3
	if r3.err != nil || r3.o != Coalesced {
		t.Fatalf("third caller: o=%v err=%v, want coalesced/nil", r3.o, r3.err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn called %d times, want 2", n)
	}
}

// waitFor polls cond until it holds (the test timeout is the only
// deadline; conditions here settle in microseconds).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for !cond() {
		runtime.Gosched()
	}
}

// TestCanonicalDigest: the instance-only digest is permutation
// invariant (the property cache-affinity routing rides on), sensitive
// to the instance itself, and insensitive to algorithm/flags — two
// requests for the same instance under different options still land on
// the same replica.
func TestCanonicalDigest(t *testing.T) {
	in := testInstance(t)
	base := CanonicalDigest(in)
	for _, perm := range [][]int{{1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if CanonicalDigest(in.Permute(perm)) != base {
			t.Fatalf("perm %v changed the canonical digest", perm)
		}
	}
	other := in.Clone()
	other.G = 3
	if CanonicalDigest(other) == base {
		t.Fatal("g must affect the digest")
	}
	other = in.Clone()
	other.Jobs[0].Deadline++
	if CanonicalDigest(other) == base {
		t.Fatal("job windows must affect the digest")
	}
	// KeyFor varies with algorithm/flags while the digest stays put:
	// the cache distinguishes results, the router only places instances.
	if KeyFor(in, "nested95") == KeyFor(in, "comb") {
		t.Fatal("algorithm must affect KeyFor")
	}
	if KeyFor(in, "nested95", true) == KeyFor(in, "nested95", false) {
		t.Fatal("flags must affect KeyFor")
	}

	// Pinned bytes: the cache keys and the router's affinity placement
	// must not drift. The instance has two start groups and a root that
	// touches the previous one, the cases the structural sweep handles.
	pin := instance.MustNew(2, []instance.Job{
		{Processing: 2, Release: 0, Deadline: 6},
		{Processing: 1, Release: 1, Deadline: 3},
		{Processing: 3, Release: 0, Deadline: 4},
		{Processing: 1, Release: 6, Deadline: 9},
		{Processing: 2, Release: 6, Deadline: 8},
		{Processing: 1, Release: 12, Deadline: 13},
	})
	for _, c := range []struct {
		name string
		got  Key
		want string
	}{
		{"CanonicalDigest", CanonicalDigest(pin),
			"4fc37c9d74a21284baba479d98801ab9d6fc6b65c294e11ea52a7dd3d7d59dbe"},
		{"KeyFor", KeyFor(pin, "nested95", false, false, false),
			"3ee385d0f4a7d0024ee3f1ec2a13b5a3a8b97dc4e52af2da8a41b28231b7cc3b"},
		{"StructKeyFor", StructKeyFor(pin, "nested95", false, false, false),
			"9a8b0096567ae4eb70c9cb01e3bbebc62a2f8591cd3ef20de4f0c35d132cdccb"},
		{"CanonicalDigest(empty)", CanonicalDigest(instance.MustNew(1, nil)),
			"4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"},
		{"StructKeyFor(empty)", StructKeyFor(instance.MustNew(1, nil), "comb"),
			"a2e4239c7136b2155564dedbd3d58533d4ffc2f64adbc807029a1891069247fc"},
	} {
		if got := fmt.Sprintf("%x", c.got); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}
