package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark was built on is a shared virtual machine
// whose speed varied by up to 1.6× between runs minutes apart, which
// alone would make every timing's run-to-run spread wider than any
// useful bound. So each run measures the machine's speed while it runs
// and reports timings at a reference speed.
//
// The speed probe runs a fixed memory-bound kernel, no code of this
// repository, every 20 ms on its own OS thread and takes the thread's
// CPU time for it: time the thread waits for a processor does not
// count, only how fast the processor ran. Over ten runs per workload on
// the reference machine, the probe's median correlated with CPU time
// per request at r = 0.91–0.99, and dividing by it cut the spread of
// throughput, median latency and CPU time per request from 0.09–0.29
// to 0.02–0.08. The probe takes about 1% of one core.

// referenceProbeNS is the probe's median kernel CPU time on the
// reference machine; a run whose probe matches it reports timings as
// measured.
const referenceProbeNS = 128_000

// speedProbe samples the kernel until stopped.
type speedProbe struct {
	start   time.Time
	stop    chan struct{}
	done    chan []probeSample
	once    sync.Once
	samples []probeSample // set by finish
}

// probeSample is one kernel run: when it ran, as time since the probe
// started, and the thread CPU time it took.
type probeSample struct {
	at time.Duration
	ns int64
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{start: time.Now(), stop: make(chan struct{}), done: make(chan []probeSample)}
	go func() { p.done <- p.sample() }()
	return p
}

func (p *speedProbe) sample() []probeSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k := newKernel()
	var out []probeSample
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return out
		case <-t.C:
		}
		t0, ok0 := threadCPU()
		k.run()
		t1, ok1 := threadCPU()
		if ok0 && ok1 {
			out = append(out, probeSample{at: time.Since(p.start), ns: t1 - t0})
		}
	}
}

// finish stops the probe and waits for it; later calls do nothing.
func (p *speedProbe) finish() {
	p.once.Do(func() {
		close(p.stop)
		p.samples = <-p.done
	})
}

// minWindowSamples is the fewest kernel runs a window's factor rests
// on; a shorter window falls back to the whole run.
const minWindowSamples = 8

// factor returns how much slower than the reference the machine ran
// between from and to: the median kernel time of the runs in that
// window over referenceProbeNS. A window with fewer than
// minWindowSamples runs falls back to all of them; with no run at all
// the factor is 1. Call it after finish.
func (p *speedProbe) factor(from, to time.Time) float64 {
	var s []int64
	lo, hi := from.Sub(p.start), to.Sub(p.start)
	for _, x := range p.samples {
		if x.at >= lo && x.at <= hi {
			s = append(s, x.ns)
		}
	}
	if len(s) < minWindowSamples {
		s = s[:0]
		for _, x := range p.samples {
			s = append(s, x.ns)
		}
	}
	if len(s) == 0 {
		return 1
	}
	slices.Sort(s)
	return float64(s[len(s)/2]) / referenceProbeNS
}

// kernel is the probe's fixed work: scattered increments over a 256 KiB
// table and a sort of 1024 integers. It allocates nothing, so the GC
// never charges it assist work.
type kernel struct {
	table    []int32
	src, dst []int64
}

func newKernel() *kernel {
	k := &kernel{table: make([]int32, 1<<16), src: make([]int64, 1024), dst: make([]int64, 1024)}
	for i := range k.src {
		k.src[i] = int64(i*7919%1021) ^ int64(i<<3)
	}
	return k
}

func (k *kernel) run() {
	copy(k.dst, k.src)
	slices.Sort(k.dst)
	x := uint32(1)
	for i := 0; i < 20000; i++ {
		x = x*1664525 + 1013904223
		k.table[x>>16]++
	}
}

// threadCPU reads the calling thread's CPU clock in nanoseconds.
func threadCPU() (int64, bool) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano(), errno == 0
}
