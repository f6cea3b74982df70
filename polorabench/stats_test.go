package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// A tail percentile is reportable only with at least ten samples beyond
// it: p90 needs 100 samples, p99 needs 1000.
func TestPercentileTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{100, 90, 90, 10, true},
		{99, 90, 90, 9, false},
		{1000, 99, 990, 10, true},
		{999, 99, 990, 9, false},
		{20, 50, 10, 10, true},
		{19, 50, 10, 9, false},
		{1, 50, 1, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got.Value != c.value || got.Beyond != c.beyond || ok != c.ok || got.N != c.n {
			t.Errorf("percentile(1..%d, p%g) = %+v ok=%v, want value %g beyond %d ok=%v",
				c.n, c.p, got, ok, c.value, c.beyond, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestSampleNeed(t *testing.T) {
	for p, want := range map[float64]int{50: 20, 90: 100, 99: 1000} {
		if got := sampleNeed(p); got != want {
			t.Errorf("sampleNeed(%g) = %d, want %d", p, got, want)
		}
		if _, ok := percentile(seq(sampleNeed(p)), p); !ok {
			t.Errorf("p%g not reportable at sampleNeed samples", p)
		}
	}
}

// quartiles must match Python's statistics.quantiles(values, n=4), which
// the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values     []float64
		q1, q2, q3 float64
		median     float64
	}{
		{seq(10), 2.75, 5.5, 8.25, 5.5},
		{[]float64{3.5, 1.25, 9.0, 4.0}, 1.8125, 3.75, 7.75, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5, 15},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.values)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.values); !near(m, c.median) {
			t.Errorf("median(%v) = %g, want %g", c.values, m, c.median)
		}
	}
	if got := spread(seq(10)); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread(1..10) = %g", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A stream's rate is the median of its blocks' rates, so one slow stretch
// does not move it.
func TestRateIsMedianOfBlocks(t *testing.T) {
	s := &stream{}
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		step := 100 * time.Millisecond
		if i >= 40 && i < 50 {
			step = time.Second // one block ten times slower
		}
		at += step
		s.record(time.Millisecond, at, nil)
	}
	s.record(0, at, errors.New("failed")) // no sample, no completion
	if got := s.rate(); !near(got, 10) {
		t.Errorf("rate = %g, want 10", got)
	}
	few := &stream{}
	few.record(time.Millisecond, 2*time.Second, nil)
	few.record(time.Millisecond, 4*time.Second, nil)
	if got := few.rate(); !near(got, 0.5) {
		t.Errorf("rate of 2 operations in 4 s = %g, want 0.5", got)
	}
}

// Lockstep rounds fix the mix of the loops' operations at their perRound
// ratio, however much slower one loop's operation is than the other's.
func TestRunLoopsLockstepFixesMix(t *testing.T) {
	slow, fast := &stream{}, &stream{}
	op := func(d time.Duration) func() (time.Duration, error) {
		return func() (time.Duration, error) { time.Sleep(d); return d, nil }
	}
	runLoops(0, []loop{
		{s: slow, min: 5, perRound: 1, op: op(2 * time.Millisecond)},
		{s: fast, min: 1, perRound: 3, op: op(0)},
	})
	if slow.ok() < 5 || fast.ok() != 3*slow.ok() {
		t.Errorf("lockstep rounds ran %d slow and %d fast operations, want at least 5 and three times as many", slow.ok(), fast.ok())
	}
}
