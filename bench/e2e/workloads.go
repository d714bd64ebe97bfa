package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/gen"
	"repro/internal/instance"
)

// defaultSeed is the seed a run uses when -seed is absent; the pinned
// fingerprints below are the sha256 of each workload's request bodies
// at this seed.
const defaultSeed = 1

// g is the machine capacity of every generated instance (near-miss
// raise_g variants add to it).
const g = 3

// workload is one traffic mix. Sizes, rates and latency limits were
// measured on a 2-core x86-64 container and are frozen: a later change
// is judged against them, so they must not follow the code.
type workload struct {
	name string
	// open selects the Poisson open loop through a 3-replica router;
	// every other workload is a closed loop of closedClients clients
	// against one server.
	open bool
	// rate is the open loop's arrival rate (requests/s). 800/s keeps
	// the two cores about 28% busy; at 1400/s the p99 spread between
	// runs was 0.50, too wide to bound.
	rate float64
	// sloMS is the latency limit slo_frac counts against: the baseline
	// p99, frozen.
	sloMS float64
	// rps is above any throughput the reference machine reached; it
	// sizes the sample buffers.
	rps float64
	// sampleEvery is N of the 1-in-N output-check sample, sized so a
	// baseline run checks at least 2000 schedules.
	sampleEvery int
	// checkMB caps the off-heap memory retaining sampled responses.
	checkMB int
	// fingerprint pins sha256 over the bodies generated at defaultSeed
	// (full size); a mismatch aborts, so generator drift cannot change
	// the workload silently.
	fingerprint string
	build       func(rng *rand.Rand, quick bool) (*plan, error)
}

// closedClients is the closed-loop client count: one per core of the
// 2-core reference machine, so load never exceeds what the service
// can run in parallel.
const closedClients = 2

var workloads = []*workload{
	{
		name: "cold-mix", rps: 1000, checkMB: 64, sloMS: 13.8, sampleEvery: 5,
		fingerprint: "bbf37a27088a4e514954bc38af7392b572bb08527cac45f9d18e689731009004",
		build: func(rng *rand.Rand, quick bool) (*plan, error) {
			return coldPlan(rng, coldMix, pick(quick, 64, 1536), pick(quick, 2, 48))
		},
	},
	{
		name: "hot-permuted", rps: 10000, checkMB: 64, sloMS: 1.21, sampleEvery: 48,
		fingerprint: "5a165759792bb355ec9c225ea782b58ef35af4d55d2b8280ec3fce7719fd1dc8",
		build: func(rng *rand.Rand, quick bool) (*plan, error) {
			return hotPlan(rng, pick(quick, 16, 128), pick(quick, 64, 4096))
		},
	},
	{
		name: "near-miss", rps: 2500, checkMB: 64, sloMS: 6.38, sampleEvery: 16,
		fingerprint: "0c1adccd60d30ed267a33ed13364b3091851a2a2b5b3741f45419d5df66af007",
		build: func(rng *rand.Rand, quick bool) (*plan, error) {
			return nearMissPlan(rng, pick(quick, 8, 96), pick(quick, 64, 8192))
		},
	},
	{
		name: "wide-horizon", rps: 150, checkMB: 128, sloMS: 308, sampleEvery: 1,
		fingerprint: "cd7933095795deff0be71ad236988ea9bfee0f992c35b6796950f6190180c486",
		build: func(rng *rand.Rand, quick bool) (*plan, error) {
			return coldPlan(rng, wideMix, pick(quick, 32, 1024), pick(quick, 2, 32))
		},
	},
	{
		name: "fleet-open", rps: 800, checkMB: 64, open: true, rate: 800, sloMS: 4.89, sampleEvery: 6,
		fingerprint: "6e9c4749807445d8c8fecd18a5c286555003f68475d6bdf57fcb01ad78e00d38",
		build: func(rng *rand.Rand, quick bool) (*plan, error) {
			return fleetPlan(rng, pick(quick, 64, 1024), pick(quick, 256, 8192), pick(quick, 16, 128))
		},
	},
}

func pick(quick bool, small, full int) int {
	if quick {
		return small
	}
	return full
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// request is one prepared /solve body with the instance's trivial lower
// bound, which quality_ratio divides by.
type request struct {
	body []byte
	lb   int64
}

// plan is a workload's generated input. The measured phase cycles
// through reqs; warmup runs during set-up and is never timed.
type plan struct {
	reqs   []request
	warmup []request
}

// fingerprint is sha256 over every body, warm-up first, each length
// prefixed.
func (p *plan) fingerprint() string {
	h := sha256.New()
	for _, set := range [][]request{p.warmup, p.reqs} {
		for _, r := range set {
			h.Write([]byte(strconv.Itoa(len(r.body))))
			h.Write([]byte{':'})
			h.Write(r.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// arrivals draws Poisson arrival offsets at rate per second covering
// dur.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// seedFor derives a workload's generator seed, so two workloads run
// with the same -seed still draw different inputs.
func seedFor(name string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64()>>1) ^ seed
}

// strata spreads instance families and sizes evenly: dimension d's
// k-th draw is the golden-ratio-style sequence frac(k·α_d), the same on
// every seed. Family and size are what per-request cost mostly depends
// on, so fixing their sequence keeps a workload's cost the same from
// seed to seed; the seed still draws every window, processing time,
// job order and delta.
type strata struct {
	k [3]int
}

var strataAlpha = [3]float64{0.6180339887498949, 0.4142135623730951, 0.7320508075688772}

const (
	dimFamily = iota
	dimComponents
	dimJobs
)

func (s *strata) next(d int) float64 {
	s.k[d]++
	v := float64(s.k[d]) * strataAlpha[d]
	return v - math.Floor(v)
}

// uniformInt maps u ∈ [0,1) onto lo..hi.
func uniformInt(u float64, lo, hi int) int {
	return lo + int(u*float64(hi-lo+1))
}

// logUniformInt maps u ∈ [0,1) onto lo..hi with log-uniform weight.
func logUniformInt(u float64, lo, hi int) int {
	v := int(math.Floor(float64(lo) * math.Pow(float64(hi+1)/float64(lo), u)))
	if v > hi {
		v = hi
	}
	return v
}

// mix is a generator of instance shapes: a laminar or unit-job forest
// of several components, or a general (crossing-window) instance.
type mix struct {
	minComp, maxComp int // log-uniform component count
	minJobs, maxJobs int // jobs per forest component
	minGen, maxGen   int // jobs of a general instance
	laminar, unit    float64
	scale            int64 // multiplies every r, d and p
}

var (
	coldMix = mix{minComp: 1, maxComp: 16, minJobs: 8, maxJobs: 48, minGen: 8, maxGen: 32,
		laminar: 0.6, unit: 0.3, scale: 1}
	wideMix = mix{minComp: 1, maxComp: 8, minJobs: 8, maxJobs: 48, minGen: 8, maxGen: 24,
		laminar: 0.6, unit: 0.3, scale: 16}
	hotMix = mix{minComp: 1, maxComp: 4, minJobs: 8, maxJobs: 48, minGen: 8, maxGen: 32,
		laminar: 0.6, unit: 0.3, scale: 1}
	// nearMix has no general instances: they never warm-start.
	nearMix = mix{minComp: 2, maxComp: 12, minJobs: 8, maxJobs: 48,
		laminar: 2.0 / 3, unit: 1.0 / 3, scale: 1}
)

// instance draws one instance. Large forests are built from small
// components shifted apart, never from one big generator call: the
// laminar generator's feasibility check allocates quadratically.
func (m mix) instance(rng *rand.Rand, s *strata) *instance.Instance {
	var jobs []instance.Job
	u := s.next(dimFamily)
	if u >= m.laminar+m.unit {
		n := uniformInt(s.next(dimJobs), m.minGen, m.maxGen)
		jobs = gen.RandomGeneral(rng, gen.DefaultGeneral(n, g)).Jobs
	} else {
		comps := logUniformInt(s.next(dimComponents), m.minComp, m.maxComp)
		var off int64
		for c := 0; c < comps; c++ {
			p := gen.DefaultLaminar(uniformInt(s.next(dimJobs), m.minJobs, m.maxJobs), g)
			var in *instance.Instance
			if u < m.laminar {
				in = gen.RandomLaminar(rng, p)
			} else {
				in = gen.RandomUnitLaminar(rng, p)
			}
			end := off
			for _, j := range in.Jobs {
				j.Release += off
				j.Deadline += off
				jobs = append(jobs, j)
				if j.Deadline > end {
					end = j.Deadline
				}
			}
			// One idle slot keeps the components' spans disjoint.
			off = end + 1
		}
	}
	for i := range jobs {
		jobs[i].Release *= m.scale
		jobs[i].Deadline *= m.scale
		jobs[i].Processing *= m.scale
	}
	return instance.MustNew(g, jobs)
}

// permuted returns in with a fresh random job order.
func permuted(rng *rand.Rand, in *instance.Instance) *instance.Instance {
	return in.Permute(rng.Perm(in.N()))
}

// encodeRequest renders a compact /solve body. Every request asks for
// the schedule, so relabeling and schedule encoding are on the
// measured path.
func encodeRequest(in *instance.Instance, algorithm string) request {
	b := make([]byte, 0, 32+24*in.N())
	b = append(b, `{"instance":{"g":`...)
	b = strconv.AppendInt(b, in.G, 10)
	b = append(b, `,"jobs":[`...)
	for i, j := range in.Jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"p":`...)
		b = strconv.AppendInt(b, j.Processing, 10)
		b = append(b, `,"r":`...)
		b = strconv.AppendInt(b, j.Release, 10)
		b = append(b, `,"d":`...)
		b = strconv.AppendInt(b, j.Deadline, 10)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	if algorithm != "" {
		b = append(b, `,"algorithm":"`...)
		b = append(b, algorithm...)
		b = append(b, '"')
	}
	b = append(b, `,"include_schedule":true}`...)
	return request{body: b, lb: in.LowerBound()}
}

// coldPlan: every request a fresh instance. The plan is far larger
// than the solve cache (256 entries), so even when a fast run wraps
// around, the repeats have long been evicted and still miss.
func coldPlan(rng *rand.Rand, m mix, n, warm int) (*plan, error) {
	s := &strata{}
	p := &plan{}
	// Set-up warms the solver paths with forests only: one general
	// instance can cost more than the rest of set-up together.
	wm, ws := m, &strata{}
	wm.laminar, wm.unit = m.laminar/(m.laminar+m.unit), m.unit/(m.laminar+m.unit)
	for i := 0; i < warm; i++ {
		p.warmup = append(p.warmup, encodeRequest(permuted(rng, wm.instance(rng, ws)), ""))
	}
	for i := 0; i < n; i++ {
		p.reqs = append(p.reqs, encodeRequest(permuted(rng, m.instance(rng, s)), ""))
	}
	return p, nil
}

// hotPlan: a pool of instances requested round-robin, each request a
// fresh job-order permutation. Set-up solves every pool entry once.
func hotPlan(rng *rand.Rand, pool, n int) (*plan, error) {
	s := &strata{}
	insts := make([]*instance.Instance, pool)
	p := &plan{}
	for i := range insts {
		insts[i] = hotMix.instance(rng, s)
		p.warmup = append(p.warmup, encodeRequest(permuted(rng, insts[i]), ""))
	}
	for i := 0; i < n; i++ {
		p.reqs = append(p.reqs, encodeRequest(permuted(rng, insts[i%pool]), ""))
	}
	return p, nil
}

// nearMissPlan: requests against a set of bases, which set-up solves
// once each — half permuted exact repeats, a quarter raise_g and a
// quarter grow deltas with delta seeds drawn from 1..1000.
// Even-numbered bases ask for the combinatorial solver, the only one
// that resumes grow (superset) deltas, so grow deltas are drawn from
// those; the other bases leave the choice to auto routing, which picks
// the LP pipeline and resumes raise_g.
//
// Each run of `bases` requests visits every base once, in a fresh
// order, and there are 96 bases rather than fewer: per-request cost
// depends on which bases a seed happens to favour. Over runs with
// different seeds, the interquartile spread of allocation per request
// was 12% of its median with 48 bases drawn at random, and 3% like
// this.
func nearMissPlan(rng *rand.Rand, bases, n int) (*plan, error) {
	s := &strata{}
	base := make([]*instance.Instance, bases)
	alg := make([]string, bases)
	p := &plan{}
	for i := range base {
		base[i] = nearMix.instance(rng, s)
		if i%2 == 0 {
			alg[i] = "comb"
		}
		p.warmup = append(p.warmup, encodeRequest(permuted(rng, base[i]), alg[i]))
	}
	var order []int
	for i := 0; i < n; i++ {
		if i%bases == 0 {
			order = rng.Perm(bases)
		}
		b := order[i%bases]
		in := base[b]
		switch u := s.next(dimFamily); {
		case u < 0.25:
			in = raiseG(in, 1+rng.Int63n(1000))
		case u < 0.5:
			b &^= 1
			var err error
			if in, err = grow(base[b], 1+rng.Int63n(1000)); err != nil {
				return nil, err
			}
		}
		p.reqs = append(p.reqs, encodeRequest(permuted(rng, in), alg[b]))
	}
	return p, nil
}

// raiseG is the raise_g delta: the same jobs with g raised by 1..6.
func raiseG(in *instance.Instance, seed int64) *instance.Instance {
	out := in.Clone()
	out.G += 1 + rand.New(rand.NewSource(seed)).Int63n(6)
	return out
}

// grow is the superset delta: up to ~10% extra unit jobs, each spanning
// a root window picked at random among those with spare capacity
// (g·|root| − Σp > 0), so the result stays feasible.
func grow(in *instance.Instance, seed int64) (*instance.Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	type root struct{ lo, hi, slack int64 }
	idx := make([]int, in.N())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ja, jb := in.Jobs[idx[a]], in.Jobs[idx[b]]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.Deadline > jb.Deadline
	})
	var roots []root
	for _, i := range idx {
		j := in.Jobs[i]
		if len(roots) == 0 || j.Release >= roots[len(roots)-1].hi {
			roots = append(roots, root{lo: j.Release, hi: j.Deadline, slack: (j.Deadline - j.Release) * in.G})
		}
		roots[len(roots)-1].slack -= j.Processing
	}
	jobs := append([]instance.Job(nil), in.Jobs...)
	for target := 1 + rng.Intn((in.N()+9)/10); target > 0; target-- {
		var open []int
		for k, r := range roots {
			if r.slack > 0 {
				open = append(open, k)
			}
		}
		if len(open) == 0 {
			break
		}
		k := open[rng.Intn(len(open))]
		jobs = append(jobs, instance.Job{Processing: 1, Release: roots[k].lo, Deadline: roots[k].hi})
		roots[k].slack--
	}
	return instance.New(in.G, jobs)
}

// fleetPlan: a pool with Zipf(1.0) popularity by rank, every request a
// fresh permutation. Set-up sends the warm most popular entries once.
func fleetPlan(rng *rand.Rand, pool, n, warm int) (*plan, error) {
	s := &strata{}
	insts := make([]*instance.Instance, pool)
	for i := range insts {
		insts[i] = hotMix.instance(rng, s)
	}
	cdf := make([]float64, pool)
	sum := 0.0
	for r := range cdf {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	p := &plan{}
	for i := 0; i < warm && i < pool; i++ {
		p.warmup = append(p.warmup, encodeRequest(permuted(rng, insts[i]), ""))
	}
	for i := 0; i < n; i++ {
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if r >= pool {
			r = pool - 1
		}
		p.reqs = append(p.reqs, encodeRequest(permuted(rng, insts[r]), ""))
	}
	return p, nil
}
