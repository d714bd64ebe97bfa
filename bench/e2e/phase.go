package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// layer names a span's place in the request path.
type layer uint8

const (
	layerClient layer = iota
	layerRouter
	layerReplica
)

var layerNames = [...]string{"client", "router", "replica"}

// sample is one measured request; times are nanoseconds since the
// phase began. It holds no pointers, so the GC never scans the sample
// slice.
type sample struct {
	seq    int64
	code   int16
	size   int32
	active int64
	// due is when the request was due: its arrival time in the open
	// loop, its client's previous completion in a closed loop.
	// dispatched is when the open loop's dispatcher handed it to its
	// goroutine (start, in a closed loop). start and end bracket the
	// handler call; latency is end − start in a closed loop and
	// end − due in the open loop.
	due, dispatched, start, end int64

	// Traced runs only: the router and replica spans, and fields of
	// the response head.
	router, replica [2]int64
	replicaIdx      int8
	alg             int8 // index into algNames; -1 unknown
	cached, warm    bool
	elapsedMS       float64
}

// latency is the client-visible latency in nanoseconds.
func (s *sample) latency(open bool) int64 {
	if open {
		return s.end - s.due
	}
	return s.end - s.start
}

// spanCtx travels in the request context so the span recorders
// wrapped around the router and replica handlers can find the request's
// sample: every in-process hop runs on the caller's goroutine and
// forwards the caller's context.
type spanCtx struct {
	s    *sample
	base time.Time
}

type spanKey struct{}

// spanHandler records one layer's span around next.
type spanHandler struct {
	layer   layer
	replica int8
	next    http.Handler
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sc, _ := r.Context().Value(spanKey{}).(*spanCtx)
	if sc == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Since(sc.base).Nanoseconds()
	h.next.ServeHTTP(w, r)
	span := [2]int64{start, time.Since(sc.base).Nanoseconds()}
	if h.layer == layerRouter {
		sc.s.router = span
	} else {
		sc.s.replica, sc.s.replicaIdx = span, h.replica
	}
}

// checkArena keeps the response bodies of the output-check sample off
// the Go heap, so retaining them moves neither peak_heap_mb nor the GC
// pacer. Clients append concurrently into disjoint reserved ranges.
type checkArena struct {
	buf  []byte
	pos  atomic.Int64
	keep []kept
	n    atomic.Int64
}

type kept struct {
	seq      int64
	off, len int64
}

// offHeap maps size bytes of anonymous memory outside the Go heap.
// Pages are only backed once written.
func offHeap(size int) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func newCheckArena(bytes, entries int) (*checkArena, error) {
	buf, err := offHeap(bytes)
	if err != nil {
		return nil, err
	}
	return &checkArena{buf: buf, keep: make([]kept, entries)}, nil
}

func (a *checkArena) release() {
	if a != nil && a.buf != nil {
		_ = syscall.Munmap(a.buf) // the mapping is private to the benchmark
		a.buf = nil
	}
}

// put retains b for request seq; it drops b once the arena is full.
func (a *checkArena) put(seq int64, b []byte) {
	i := a.n.Add(1) - 1
	if i >= int64(len(a.keep)) {
		return
	}
	end := a.pos.Add(int64(len(b)))
	if end > int64(len(a.buf)) {
		a.keep[i] = kept{seq: seq, off: -1}
		return
	}
	copy(a.buf[end-int64(len(b)):end], b)
	a.keep[i] = kept{seq: seq, off: end - int64(len(b)), len: int64(len(b))}
}

// bodies returns the retained bodies by request sequence number.
func (a *checkArena) bodies() map[int64][]byte {
	n := a.n.Load()
	if n > int64(len(a.keep)) {
		n = int64(len(a.keep))
	}
	out := make(map[int64][]byte, n)
	for _, k := range a.keep[:n] {
		if k.off >= 0 {
			out[k.seq] = a.buf[k.off : k.off+k.len]
		}
	}
	return out
}

// Request-id prefixes of the set-up pass and the measured phase; traced
// runs join wide events to samples by id.
const (
	warmIDPrefix  = "w-"
	phaseIDPrefix = "b-"
)

// phaseConfig describes one measured phase.
type phaseConfig struct {
	h    http.Handler
	reqs []request
	dur  time.Duration
	// arrivals switches to the open loop: one dispatcher issues request
	// i at arrivals[i], each on its own goroutine, as net/http's
	// per-connection goroutines would.
	arrivals []time.Duration
	// count, when positive, ends a closed loop after that many requests
	// instead of after dur (the set-up pass).
	count       int
	traced      bool
	idPrefix    string
	sampleEvery int
	capHint     int
	arena       *checkArena
}

// phaseResult is what a phase measured.
type phaseResult struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	// peakLive is the live heap's high-water mark during the phase (see
	// monitorLiveHeap).
	peakLive uint64
}

// issue sends request seq and fills s. due and dispatched are in
// nanoseconds since base; a negative dispatched means the request is
// sent as soon as it is issued.
func issue(cfg *phaseConfig, base time.Time, seq, due, dispatched int64, s *sample) {
	r := &cfg.reqs[seq%int64(len(cfg.reqs))]
	*s = sample{seq: seq, due: due, dispatched: dispatched, alg: -1}
	ctx := context.Background()
	var id string
	if cfg.traced {
		ctx = context.WithValue(ctx, spanKey{}, &spanCtx{s: s, base: base})
		id = cfg.idPrefix + strconv.FormatInt(seq, 10)
	}
	s.start = time.Since(base).Nanoseconds()
	if s.dispatched < 0 {
		s.dispatched = s.start
	}
	w := post(ctx, cfg.h, r.body, id)
	s.end = time.Since(base).Nanoseconds()
	body := w.buf.Bytes()
	s.code = int16(w.code)
	s.size = int32(len(body))
	if w.code != http.StatusOK {
		return
	}
	s.active = activeSlots(body)
	if cfg.sampleEvery > 0 && seq%int64(cfg.sampleEvery) == 0 && cfg.arena != nil {
		cfg.arena.put(seq, body)
	}
	if cfg.traced {
		s.parseHead(body)
	}
}

// activeSlots reads active_slots from a response without decoding it:
// the field precedes the schedule in the server's fixed field order.
func activeSlots(body []byte) int64 {
	const key = `"active_slots":`
	head := body
	if len(head) > 512 {
		head = head[:512]
	}
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return -1
	}
	v := int64(0)
	for _, c := range head[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	return v
}

// sampleStore holds one client's samples in anonymous memory outside
// the Go heap, so that recording them moves neither peak_heap_mb nor the
// GC's pacing; past its capacity it spills onto the heap.
type sampleStore struct {
	mem   []byte
	buf   []sample // over mem
	spill []sample
}

func newSampleStore(capacity int) (*sampleStore, error) {
	st := &sampleStore{}
	if capacity > 0 {
		mem, err := offHeap(capacity * int(unsafe.Sizeof(sample{})))
		if err != nil {
			return nil, fmt.Errorf("map samples: %w", err)
		}
		st.mem = mem
		st.buf = unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), capacity)[:0]
	}
	return st, nil
}

// next returns the slot for the next sample; it stays valid until the
// following call.
func (st *sampleStore) next() *sample {
	if len(st.buf) < cap(st.buf) {
		st.buf = st.buf[:len(st.buf)+1]
		return &st.buf[len(st.buf)-1]
	}
	st.spill = append(st.spill, sample{})
	return &st.spill[len(st.spill)-1]
}

// clientStores returns one store per closed-loop client.
func clientStores(capacity int) ([]*sampleStore, error) {
	stores := make([]*sampleStore, closedClients)
	for c := range stores {
		st, err := newSampleStore(capacity)
		if err != nil {
			collect(stores[:c])
			return nil, err
		}
		stores[c] = st
	}
	return stores, nil
}

// collect copies every store's samples onto the heap and unmaps the
// stores.
func collect(stores []*sampleStore) []sample {
	n := 0
	for _, st := range stores {
		n += len(st.buf) + len(st.spill)
	}
	out := make([]sample, 0, n)
	for _, st := range stores {
		out = append(append(out, st.buf...), st.spill...)
		if st.mem != nil {
			_ = syscall.Munmap(st.mem) // a private mapping: failure leaks address space only
		}
	}
	return out
}

// runPhase measures one phase: a closed loop of closedClients clients,
// or the open loop when cfg.arrivals is set.
func runPhase(cfg *phaseConfig) (*phaseResult, error) {
	var stores []*sampleStore
	if cfg.arrivals != nil {
		st, err := newSampleStore(len(cfg.arrivals))
		if err != nil {
			return nil, err
		}
		stores = append(stores, st)
	} else {
		var err error
		if stores, err = clientStores(cfg.capHint / closedClients); err != nil {
			return nil, err
		}
	}
	res := &phaseResult{}
	stopMon := make(chan struct{})
	monDone := make(chan uint64)
	go func() { monDone <- monitorLiveHeap(stopMon) }()

	cpu0 := cpuTime()
	alloc0 := readUint(allocMetric)
	base := time.Now()
	var err error
	if cfg.arrivals != nil {
		err = openLoop(cfg, base, stores[0])
	} else {
		closedLoop(cfg, base, stores)
	}
	res.wall = time.Since(base)
	res.cpu = cpuTime() - cpu0
	res.alloc = readUint(allocMetric) - alloc0
	close(stopMon)
	res.peakLive = <-monDone
	res.samples = collect(stores)
	return res, err
}

func closedLoop(cfg *phaseConfig, base time.Time, stores []*sampleStore) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, st := range stores {
		wg.Add(1)
		go func(st *sampleStore) {
			defer wg.Done()
			prevEnd := int64(0)
			for {
				seq := next.Add(1) - 1
				if cfg.count > 0 && seq >= int64(cfg.count) || cfg.count == 0 && time.Since(base) >= cfg.dur {
					return
				}
				s := st.next()
				issue(cfg, base, seq, prevEnd, -1, s)
				prevEnd = s.end
			}
		}(st)
	}
	wg.Wait()
}

// openLoop fills st with one sample per arrival.
func openLoop(cfg *phaseConfig, base time.Time, st *sampleStore) error {
	al, err := newAlarm()
	if err != nil {
		return err
	}
	defer al.close()
	for range cfg.arrivals {
		st.next()
	}
	out := st.buf
	var wg sync.WaitGroup
	defer wg.Wait()
	for i, off := range cfg.arrivals {
		if err := al.sleepUntil(base.Add(off)); err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, due, dispatched int64) {
			defer wg.Done()
			issue(cfg, base, int64(i), due, dispatched, &out[i])
		}(i, off.Nanoseconds(), time.Since(base).Nanoseconds())
	}
	return nil
}

const (
	allocMetric = "/gc/heap/allocs:bytes"
	liveMetric  = "/gc/heap/live:bytes"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// monitorLiveHeap polls the live heap the GC last measured every 5 ms
// until stop closes, and returns the 95th percentile of the polls: the
// heap's high-water mark without the odd GC cycle whose mark counted a
// burst of floating garbage as live. Those cycles set the maximum,
// which varied twofold between otherwise identical runs.
func monitorLiveHeap(stop <-chan struct{}) uint64 {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	polls := []uint64{readUint(liveMetric)}
	for {
		select {
		case <-stop:
			polls = append(polls, readUint(liveMetric))
			slices.Sort(polls)
			return polls[(len(polls)-1)*95/100]
		case <-t.C:
			polls = append(polls, readUint(liveMetric))
		}
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
