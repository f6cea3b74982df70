package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"policyoracle/internal/analysis"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
)

// cold-pair is the `polora diff` CLI path: each operation loads two
// implementations from source, extracts both with the CLI defaults
// (Parallel = GOMAXPROCS, no summary cache), diffs them and encodes the
// JSON report. One client, closed loop.
const (
	coldMinClasses = 16 // corpus sizes, in generated API classes
	coldMaxClasses = 96
	coldSetupReps  = 9
)

// coldPairBench draws a fresh corpus for every operation. Its size
// follows the golden-ratio sequence over [coldMinClasses,
// coldMaxClasses], so any stretch of a run covers the range evenly, and
// its content comes from the seed and the operation's index. A
// 25-second run sees about 170 distinct corpora, so no one corpus's
// shape moves its figures; generating it (a few ms) is client work
// between operations, outside the measured latency though inside the
// phase's CPU time. So is a collection before each operation: the CLI
// runs one pair per process, on a fresh heap.
type coldPairBench struct {
	seed  int64
	drawn int64
	opts  oracle.Options
	pairs [][2]string
	size  golden     // the next corpus's size
	rng   *rand.Rand // which of its pairs
}

func newColdPair(seed int64) *coldPairBench {
	rng := rand.New(rand.NewSource(seed))
	b := &coldPairBench{
		seed:  seed,
		opts:  oracle.DefaultOptions(),
		pairs: corpusPairs(),
		size:  golden{n: coldMaxClasses - coldMinClasses + 1, x: rng.Float64()},
		rng:   rand.New(rand.NewSource(seed + 1)),
	}
	b.opts.Parallel = 0
	return b
}

func (b *coldPairBench) next() (*gen.Corpus, [2]string) {
	b.drawn++
	c := genCorpus(b.seed*1_000_003+b.drawn, coldMinClasses+b.size.draw())
	return c, b.pairs[b.rng.Intn(len(b.pairs))]
}

// pair runs one untraced operation.
func (b *coldPairBench) pair(c *gen.Corpus, pair [2]string) (time.Duration, *diff.Report, error) {
	start := time.Now()
	var libs [2]*oracle.Library
	for i, name := range pair {
		lib, err := oracle.LoadLibrary(name, c.Sources[name])
		if err != nil {
			return 0, nil, err
		}
		lib.Extract(b.opts)
		libs[i] = lib
	}
	rep, err := oracle.Diff(libs[0], libs[1])
	if err != nil {
		return 0, nil, err
	}
	wire, err := rep.EncodeJSON()
	if err != nil {
		return 0, nil, err
	}
	d := time.Since(start)
	if len(wire) == 0 {
		return 0, nil, errors.New("empty diff report")
	}
	return d, rep, nil
}

// tracedPair runs one operation layer by layer, under spans.
func (b *coldPairBench) tracedPair(tr *tracer, op int64, c *gen.Corpus, pair [2]string, cnt *counts) (time.Duration, *diff.Report, error) {
	start := time.Now()
	root := tr.begin("op", op, -1, false)
	defer tr.end(root, false)
	var libs [2]*oracle.Library
	for i, name := range pair {
		lib, err := frontend(tr, op, root, true, name, c.Sources[name], cnt)
		if err != nil {
			return 0, nil, err
		}
		hashLayer(tr, op, root, true, lib, b.opts)
		tr.do("analysis", op, root, true, func() { lib.Extract(b.opts) })
		resolved, unresolved := lib.Resolver.Stats()
		cnt.add("resolved", float64(resolved))
		cnt.add("unresolved", float64(unresolved))
		for _, st := range []analysis.Stats{lib.MayStats, lib.MustStats} {
			cnt.add("method_analyses", float64(st.MethodAnalyses))
			cnt.add("memo_hits", float64(st.MemoHits))
			cnt.add("cp_runs", float64(st.CPRuns))
			cnt.add("cp_hits", float64(st.CPHits))
		}
		libs[i] = lib
	}
	var rep *diff.Report
	var err error
	tr.do("diff", op, root, false, func() { rep, err = oracle.Diff(libs[0], libs[1]) })
	if err != nil {
		return 0, nil, err
	}
	var wire []byte
	tr.do("diff.encode", op, root, false, func() { wire, err = rep.EncodeJSON() })
	if err != nil {
		return 0, nil, err
	}
	cnt.add("groups", float64(len(rep.Groups)))
	cnt.add("encode_bytes", float64(len(wire)))
	return time.Since(start), rep, nil
}

// verify checks a report against the corpus ground truth.
func verify(c *gen.Corpus, pair [2]string, rep *diff.Report) error {
	if problems := c.VerifyReport(pair, rep); len(problems) > 0 {
		return fmt.Errorf("%d ground-truth discrepancies, first: %s", len(problems), problems[0])
	}
	return nil
}

// reportSelfTest shows the ground-truth check catches a wrong report: a
// copy of rep with every difference removed must draw more discrepancies
// than rep itself (one per seeded issue of the pair it no longer shows).
func reportSelfTest(c *gen.Corpus, pair [2]string, rep *diff.Report) string {
	if len(rep.Groups) == 0 {
		return "no difference group to remove"
	}
	tampered := *rep
	tampered.Groups = nil
	if len(c.VerifyReport(pair, &tampered)) <= len(c.VerifyReport(pair, rep)) {
		return "missed: a report with its differences removed passed"
	}
	return "caught"
}

func runColdPair(cfg runConfig) (*outcome, error) {
	o := &outcome{
		loop:    "closed, 1 client",
		primary: "pair",
		tails:   map[string]float64{"pair": 90},
		streams: map[string]*stream{"pair": {}},
	}
	// Set-up generates a mid-size corpus and runs one warm-up pair on
	// it. Each repetition draws its own corpus, so the median does not
	// rest on one corpus's content. Half the repetitions run before the
	// timed phase and half after it (see setUpAfter).
	b := newColdPair(cfg.Seed)
	setUp := func(reps int) error {
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			c := genCorpus(cfg.Seed*1_000_003-int64(len(o.setupS))-1, (coldMinClasses+coldMaxClasses)/2)
			_, warm, err := b.pair(c, b.pairs[0])
			if err != nil {
				return fmt.Errorf("warm-up pair: %w", err)
			}
			o.setupS = append(o.setupS, sinceSeconds(start))
			if o.selfTest == "" {
				o.selfTest = reportSelfTest(c, b.pairs[0], warm)
			}
		}
		return nil
	}
	if err := setUp((coldSetupReps + 1) / 2); err != nil {
		return nil, err
	}

	s := o.streams["pair"]
	untraced := func() (time.Duration, error) {
		c, pair := b.next()
		runtime.GC()
		d, rep, err := b.pair(c, pair)
		if err != nil {
			return 0, err
		}
		return d, verify(c, pair, rep)
	}
	if !cfg.Trace {
		o.timedPhase(cfg.Seconds, []loop{{s: s, min: sampleNeed(o.tails[o.primary]), op: untraced}})
		return o, setUp(coldSetupReps / 2)
	}

	// Traced: an untraced phase first, to measure the tracing overhead
	// against, then the traced phase the layer figures come from.
	base := &stream{}
	runLoops(max(1, cfg.Seconds/2), []loop{{s: base, min: sampleNeed(o.tails[o.primary]), op: untraced}})
	o.untracedRate = base.rate()
	o.tracer = newTracer()
	cnt := newCounts()
	var op int64
	gc0 := readGC()
	o.elapsed = runLoops(cfg.Seconds, []loop{{s: s, min: 1, op: func() (time.Duration, error) {
		c, pair := b.next()
		runtime.GC()
		op++
		d, rep, err := b.tracedPair(o.tracer, op, c, pair, cnt)
		if err != nil {
			return 0, err
		}
		return d, verify(c, pair, rep)
	}}})
	gc1 := readGC()

	ops := float64(s.attempted)
	lt := layerTotals(o.tracer.snapshot())
	out := map[string]float64{}
	frontendLayers(out, lt, cnt, ops)
	out["callgraph.resolved_ratio"] = ratio(cnt.get("resolved"), cnt.get("resolved")+cnt.get("unresolved"))
	out["analysis.busy_ms"] = (msOf(lt, "analysis") - msOf(lt, "oracle.hash")) / ops
	out["analysis.alloc_mb"] = (mbOf(lt, "analysis") - mbOf(lt, "oracle.hash")) / ops
	out["analysis.method_analyses"] = cnt.get("method_analyses") / ops
	out["analysis.memo_hit_ratio"] = ratio(cnt.get("memo_hits"), cnt.get("memo_hits")+cnt.get("method_analyses"))
	out["constprop.hit_ratio"] = ratio(cnt.get("cp_hits"), cnt.get("cp_hits")+cnt.get("cp_runs"))
	out["diff.busy_ms"] = perCallMs(lt, "diff")
	out["diff.encode_ms"] = perCallMs(lt, "diff.encode")
	out["diff.groups"] = cnt.get("groups") / ops
	out["diff.encode_bytes"] = cnt.get("encode_bytes") / ops
	gcLayers(out, gc0, gc1, ops)
	out["trace.overhead_pct"] = overheadPct(o.untracedRate, s.rate())
	o.layers = out
	return o, setUp(coldSetupReps / 2)
}
