package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// stream is one closed-loop client population's record: the latency of
// every operation that succeeded and checked out, and the count of those
// that did not. A wrong or failed operation counts as missing every
// latency limit, so it contributes no sample.
type stream struct {
	mu        sync.Mutex
	lat       []float64       // ms
	done      []time.Duration // when each good operation ended, from the loop's start
	attempted int
	failed    int
	firstErr  string
}

func (s *stream) record(d, at time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == "" {
			s.firstErr = err.Error()
		}
		return
	}
	s.lat = append(s.lat, float64(d)/float64(time.Millisecond))
	s.done = append(s.done, at)
}

// rateBlocks is the number of blocks of consecutive good operations a
// stream's rate is the median of.
const rateBlocks = 10

// rate is the stream's throughput in good operations per second: the
// median over rateBlocks blocks of consecutive good operations of each
// block's count over the time from the end of the block before it (or
// the loop's start) to its own end. A median, so a few seconds in which
// another process takes the machine move the figure little.
func (s *stream) rate() float64 {
	s.mu.Lock()
	done := append([]time.Duration(nil), s.done...)
	s.mu.Unlock()
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	n := len(done)
	if n < rateBlocks {
		if n == 0 {
			return 0
		}
		return float64(n) / done[n-1].Seconds()
	}
	rates := make([]float64, rateBlocks)
	var from time.Duration
	for b := range rates {
		lo, hi := b*n/rateBlocks, (b+1)*n/rateBlocks
		to := done[hi-1]
		rates[b] = float64(hi-lo) / (to - from).Seconds()
		from = to
	}
	return median(rates)
}

func (s *stream) ok() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempted - s.failed
}

func (s *stream) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedCopy(s.lat)
}

// streamInfo is a stream's sample accounting, printed on the method line.
type streamInfo struct {
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	P50       tail   `json:"p50"`
	P90       tail   `json:"p90"`
	P99       tail   `json:"p99"`
	FirstErr  string `json:"first_error,omitempty"`
}

func (s *stream) info() streamInfo {
	lat := s.sorted()
	p50, _ := percentile(lat, 50)
	p90, _ := percentile(lat, 90)
	p99, _ := percentile(lat, 99)
	s.mu.Lock()
	defer s.mu.Unlock()
	return streamInfo{Attempted: s.attempted, Failed: s.failed, P50: p50, P90: p90, P99: p99, FirstErr: s.firstErr}
}

// loop is one closed-loop client: it runs op, waits for it, records it,
// and runs the next. op keeps its own place in the seeded sequence.
type loop struct {
	s *stream
	// min is the number of good samples the stream needs before its tail
	// percentile has minBeyond samples beyond it.
	min int
	op  func() (time.Duration, error)
	// perRound, when set on every loop, runs the loops in lockstep
	// rounds: in each round every loop runs op perRound times in a row,
	// all loops at once, and the next round starts when all have
	// finished. The mix of the loops' operations is then fixed, whichever
	// loop is slower.
	perRound int
}

// runLoops runs every loop concurrently for the given time and returns
// the elapsed wall time. Loops keep going past the deadline, for up to
// twice its length (at least 20 s), until every stream holds its minimum
// sample count.
func runLoops(seconds int, loops []loop) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	hardStop := deadline.Add(2 * time.Duration(max(seconds, 10)) * time.Second)
	done := func() bool {
		now := time.Now()
		if now.After(hardStop) {
			return true
		}
		if !now.After(deadline) {
			return false
		}
		for _, l := range loops {
			if l.s.ok() < l.min {
				return false
			}
		}
		return true
	}
	runOp := func(l loop) {
		d, err := l.op()
		l.s.record(d, time.Since(start), err)
	}
	var wg sync.WaitGroup
	if loops[0].perRound > 0 {
		for !done() {
			for _, l := range loops {
				l := l
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < l.perRound; i++ {
						runOp(l)
					}
				}()
			}
			wg.Wait()
		}
		return time.Since(start)
	}
	for _, l := range loops {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() {
				runOp(l)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// outcome is what a workload hands back to be printed.
type outcome struct {
	loop    string
	primary string // the stream whose rate the named line reports
	streams map[string]*stream
	// tails holds each stream's reported tail percentile. Stream names
	// are the nouns the named line spells metrics with: pairs_per_s,
	// read_p99_ms, mixed_read_p90_ms, ...
	tails map[string]float64

	setupS   []float64
	elapsed  time.Duration
	cpu      time.Duration // process CPU time of an untraced timed phase
	stealPct float64       // share of the machine's CPU time the hypervisor took then
	// rssMB and hwmMB are the resident set and its high-water mark when
	// the timed phase starts, peakMB the mark when it ends, and peakScope
	// what peak_rss_mb covers.
	rssMB, hwmMB float64
	peakScope    string
	peakMB       float64
	tierHits     map[string]uint64 // store reads served per tier in the timed phase
	selfTest     string
	storeFS      string
	referenceS   float64
	tracer       *tracer
	layers       map[string]float64
	untracedRate float64
	consistency  []string // checks outside any single operation that failed
}

// timedPhase runs an untraced timed phase and records its elapsed and
// CPU time, and how much of the machine the hypervisor took meanwhile:
// that time slows every wall-clock figure and is not in the CPU time.
// It first returns freed memory to the system and resets the process's
// peak resident set, so that peak_rss_mb is the timed phase's peak and
// not set-up's or the offline references'.
func (o *outcome) timedPhase(seconds int, loops []loop) {
	debug.FreeOSMemory()
	o.rssMB, _ = procStatusMB("VmRSS")
	o.hwmMB, _ = procStatusMB("VmHWM")
	o.peakScope = "timed phase"
	if resetPeakRSS() != nil {
		o.peakScope = "process"
	}
	cpu0 := processCPU()
	steal0, total0 := cpuTicks()
	o.elapsed = runLoops(seconds, loops)
	o.cpu = processCPU() - cpu0
	o.peakMB, _ = peakRSSMB()
	steal1, total1 := cpuTicks()
	o.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
}

// opsPerS is the primary stream's rate: good operations per second,
// the median over blocks of the timed phase.
func (o *outcome) opsPerS() float64 { return o.streams[o.primary].rate() }

// cpuPerOp is the timed phase's CPU time per good operation of any
// stream, in ms.
func (o *outcome) cpuPerOp() float64 {
	ok := 0
	for _, s := range o.streams {
		ok += s.ok()
	}
	return ratio(float64(o.cpu)/float64(time.Millisecond), float64(ok))
}

func (o *outcome) problems() []string {
	var p []string
	p = append(p, o.consistency...)
	for _, name := range sortedKeys(o.streams) {
		if s := o.streams[name]; s.firstErr != "" {
			p = append(p, fmt.Sprintf("%s: %d of %d failed, first: %s", name, s.failed, s.attempted, s.firstErr))
		}
	}
	return p
}

// named returns the workload's metrics under the names users read them
// by (pairs_per_s, pair_p90_ms, ...), with units, and the
// attempted/failed counts.
func (o *outcome) named(rssMB float64) map[string]any {
	metrics := map[string]metricValue{
		"setup_s":     {median(o.setupS), "s"},
		"peak_rss_mb": {rssMB, "MB"},
	}
	if o.cpu > 0 { // measured in untraced runs only
		metrics["cpu_ms_per_op"] = metricValue{o.cpuPerOp(), "ms"}
		metrics["ops_per_s"] = metricValue{o.opsPerS(), "1/s"}
	}
	attempted, failed := 0, 0
	for _, name := range sortedKeys(o.tails) {
		s := o.streams[name]
		attempted += s.attempted
		failed += s.failed
		lat := s.sorted()
		if name == o.primary {
			metrics[name+"s_per_s"] = metricValue{s.rate(), "1/s"}
		}
		for _, p := range []float64{50, o.tails[name]} {
			t, ok := percentile(lat, p)
			if !ok && p != 50 {
				continue // not enough samples beyond it to report
			}
			metrics[fmt.Sprintf("%s_p%g_ms", name, p)] = metricValue{t.Value, "ms"}
		}
	}
	return map[string]any{"attempted": attempted, "failed": failed, "metrics": metrics}
}

// sampleNeed is the sample count at which percentile p has minBeyond
// samples beyond it.
func sampleNeed(p float64) int {
	for n := minBeyond; ; n++ {
		if n-int(math.Ceil(p*float64(n)/100)) >= minBeyond {
			return n
		}
	}
}

// phi is the inverse of the golden ratio.
const phi = 0.6180339887498949

// spreadOrder returns 0..n-1 sorted by the fractional part of (i+1)·phi:
// a fixed permutation in which any run of consecutive entries spreads
// over the whole range.
func spreadOrder(n int) []int {
	key := func(i int) float64 {
		x := float64(i+1) * phi
		return x - math.Floor(x)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
	return idx
}

// golden draws indices in [0, n) along the golden-ratio sequence from a
// seeded offset: any stretch of consecutive draws covers [0, n) about
// evenly, so with inputs sorted by size every run, long or short, sees
// the same spread of sizes.
type golden struct {
	n int
	x float64
}

func (g *golden) draw() int {
	g.x += phi
	g.x -= math.Floor(g.x)
	return int(g.x * float64(g.n))
}
