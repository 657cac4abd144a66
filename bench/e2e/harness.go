package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"
)

// End-to-end metric names, reported by every workload (README, first table).
const (
	mSetup   = "setup_s"
	mUnit    = "unit_s"
	mOp      = "op_us"
	mAllocs  = "allocs_per_unit"
	mAllocMB = "alloc_mb_per_unit"
)

var endToEndNames = []string{mSetup, mUnit, mOp, mAllocs, mAllocMB}

const (
	warmUnits  = 3  // untimed units before the first timed one
	minUnits   = 24 // timed units per run, however short --seconds is
	setupEvery = 3  // one more set-up, from scratch, after every setupEvery-th timed unit
)

// unitOut is what one unit of work hands back to the harness.
type unitOut struct {
	ops int64 // operations the unit attempted
	// verify digests the unit's outputs and counts the ops that failed
	// (never folded into a timing). The harness calls it after the clock
	// and the allocation counters have been read, so checking is never
	// charged to the unit.
	verify func() (sum [32]byte, failed int64)
}

// instance is one set-up of a workload: everything that exists before the
// first unit. unit runs one fixed unit of work (recording spans when sp is
// non-nil); every unit of an instance must produce the same digest.
type instance interface {
	unit(sp *spans) (unitOut, error)
	close() error
}

// interluder is implemented by an instance that does untimed work between
// timed units (serve_mix's paced segments) and reports the ops it attempted
// and failed there. i counts units within the current phase from 0; warm
// says the phase is the warm-up, whose ops are not counted.
type interluder interface {
	interlude(i int, warm bool) (ops, failed int64, err error)
}

// opTimer is implemented by an instance that measures op_us itself instead
// of deriving it as unit_s ÷ ops (serve_mix: median paced latency).
type opTimer interface {
	opMicros() float64
}

// finisher is implemented by an instance with checks that can only run once
// the timed phase is over (serve_mix's open-loop honesty rules). A non-nil
// error marks the run incorrect.
type finisher interface {
	finish() error
}

// workload is one named set of inputs. Why each exists is recorded once, in
// BENCHMARK.json, and at length in README.md.
type workload struct {
	name string
	op   string // what one op is, for the human-readable line
	// medianUnit picks the median rather than the fastest timed unit:
	// right only for the concurrent workload, whose units are bimodal and
	// whose best-of-N wanders more than its median (README, noise table).
	medianUnit bool
	setup      func(seed uint64) (instance, error)
}

// result is one run of one workload.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	units     int
	values    map[string]float64
	notes     []string
}

// memCounters reads the two allocation counters the harness reports. The
// MemStats buffer is reused so the read itself allocates nothing.
type memCounters struct{ ms runtime.MemStats }

func (m *memCounters) read() (mallocs, bytes uint64) {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs, m.ms.TotalAlloc
}

// timedSetup executes a workload's set-up from scratch and times it.
func timedSetup(w workload, seed uint64) (instance, float64, error) {
	t0 := time.Now()
	inst, err := w.setup(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

// measure sets the workload up, warms up, then times units for seconds (at
// least minUnits of them) and verifies every unit's digest against the first
// unit's. Set-up is executed again from scratch after every setupEvery-th
// timed unit — at least nine times in all — and the fastest is reported: like
// the fastest unit it is the reading interference cannot inflate, and
// spreading the repeats over the whole run keeps one burst of interference
// from covering all of them. The units run on the first set-up's state.
func measure(w workload, seed uint64, seconds float64) (result, error) {
	res := result{correct: true, values: map[string]float64{}}

	inst, first, err := timedSetup(w, seed)
	if err != nil {
		return res, err
	}
	defer inst.close()
	setups := append(make([]float64, 0, 64), first)

	inter, _ := inst.(interluder)
	var want [32]byte
	for i := 0; i < warmUnits; i++ {
		if inter != nil {
			if _, _, err := inter.interlude(i, true); err != nil {
				return res, err
			}
		}
		out, err := inst.unit(nil)
		if err != nil {
			return res, fmt.Errorf("%s: warm-up unit %d: %w", w.name, i, err)
		}
		if i == 0 {
			want, _ = out.verify()
		}
	}

	// Sample buffers are sized up front and appended to only between the
	// counter reads, so the harness's own bookkeeping never lands inside a
	// unit's allocation window.
	capUnits := minUnits + int(seconds*100)
	unitS := make([]float64, 0, capUnits)
	allocs := make([]float64, 0, capUnits)
	allocMB := make([]float64, 0, capUnits)
	var mem memCounters
	var ops int64
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start).Seconds() < seconds; i++ {
		if inter != nil {
			n, bad, err := inter.interlude(i, false)
			if err != nil {
				return res, err
			}
			res.attempted += n
			res.failed += bad
		}
		m0, b0 := mem.read()
		t0 := time.Now()
		out, err := inst.unit(nil)
		dt := time.Since(t0)
		m1, b1 := mem.read()
		if err != nil {
			return res, fmt.Errorf("%s: unit %d: %w", w.name, i, err)
		}
		unitS = append(unitS, dt.Seconds())
		allocs = append(allocs, float64(m1-m0))
		allocMB = append(allocMB, float64(b1-b0)/1e6)
		got, bad := out.verify()
		res.attempted += out.ops
		res.failed += bad
		ops = out.ops
		if got != want {
			res.correct = false
			res.notes = append(res.notes, fmt.Sprintf("unit %d digest %x differs from the first unit's %x", i, got[:6], want[:6]))
		}
		if (i+1)%setupEvery == 0 {
			extra, s, err := timedSetup(w, seed)
			if err != nil {
				return res, err
			}
			setups = append(setups, s)
			if err := extra.close(); err != nil {
				return res, fmt.Errorf("%s: close after set-up: %w", w.name, err)
			}
		}
	}
	res.values[mSetup] = fastest(setups)
	res.units = len(unitS)
	res.notes = append(res.notes, fmt.Sprintf("timed units: fastest %.4f s, quartiles %.4f %.4f %.4f, slowest %.4f",
		fastest(unitS), quantile(unitS, 0.25), median(unitS), quantile(unitS, 0.75), quantile(unitS, 1)))

	if w.medianUnit {
		res.values[mUnit] = median(unitS)
	} else {
		res.values[mUnit] = fastest(unitS)
	}
	if ot, ok := inst.(opTimer); ok {
		res.values[mOp] = ot.opMicros()
	} else {
		res.values[mOp] = res.values[mUnit] * 1e6 / float64(ops)
	}
	res.values[mAllocs] = median(allocs)
	res.values[mAllocMB] = median(allocMB)

	if f, ok := inst.(finisher); ok {
		if err := f.finish(); err != nil {
			res.correct = false
			res.notes = append(res.notes, err.Error())
		}
	}
	if res.failed > 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("%d of %d ops failed", res.failed, res.attempted))
	}
	return res, nil
}

// digest hashes a unit's outputs bit for bit.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) floats(xs []float64) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.f64(x)
	}
}

func (d *digest) params(groups [][]float64) {
	d.u64(uint64(len(groups)))
	for _, g := range groups {
		d.floats(g)
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() (out [32]byte) {
	copy(out[:], d.h.Sum(nil))
	return out
}

// nonFinite counts NaN and ±Inf values: a diverged trainer is a failed op,
// not a fast one.
func nonFinite(groups ...[]float64) int64 {
	var n int64
	for _, g := range groups {
		for _, x := range g {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				n++
			}
		}
	}
	return n
}
