package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
)

// serve-update is the drift-monitor write path beside reads: one writer
// PUTs seeded, semantics-preserving metamorph edits of registered
// libraries while one reader diffs the same store's libraries. The two
// run in lockstep rounds. In each round the writer PUTs one library
// while the reader diffs the library the writer PUT in the round before
// against each of its two siblings: the pairs the reconcile controller
// finds stale after one update of a three-implementation store. So
// every update brings exactly updReadsPerUpdate diffs, and CPU time per
// operation is a fixed blend of the two, whichever is slower.
const (
	updCorpora    = 8 // 24 libraries, 24 diff pairs
	updMinClasses = 24
	updMaxClasses = 48
	updVariants   = 2 // metamorph edits per library; with the original, 3 states
	updMutations  = 3 // mutations per edit
	updSetupReps  = 5

	updReadsPerUpdate = 2 // len(libNames) - 1: the updated library's pairs
)

// updLib is one registered library: its source states (0 is the
// generated original, 1.. metamorph edits of it) with their offline
// extractions, and the state the store holds now.
type updLib struct {
	name   string
	states []map[string]string
	refs   []*policy.ProgramPolicies
	blobs  [][]byte

	mu    sync.Mutex
	fp    string
	state int
	puts  int
}

func (l *updLib) current() (fp string, state int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fp, l.state
}

type updPair struct {
	a, b *updLib
	want [][][]byte // [state a][state b] → /v1/diff bytes
	// truth[state a][state b] is the ground-truth check of that report:
	// nil when VerifyReport found nothing, else the discrepancy.
	truth [][]error
}

type updBench struct {
	libs  []*updLib
	pairs map[*updLib][]*updPair // each library's pairs with its siblings
}

func newUpdBench(seed int64) (*updBench, error) {
	sizes := corpusSizes(updCorpora, updMinClasses, updMaxClasses)
	opts := storeOptions()
	b := &updBench{pairs: map[*updLib][]*updPair{}}
	for ci, n := range sizes {
		c := genCorpus(seed*1000+int64(ci), n)
		for li, lib := range libNames {
			l := &updLib{name: fmt.Sprintf("c%d-%s", ci, lib), states: []map[string]string{c.Sources[lib]}}
			for v := 0; len(l.states) <= updVariants; v++ {
				mseed := seed*10007 + int64(ci*100+li*10+v)
				mutated, applied, err := metamorph.MutateSources(c.Sources[lib], mseed, updMutations)
				if err != nil {
					return nil, fmt.Errorf("mutating %s: %w", l.name, err)
				}
				if len(applied) > 0 {
					l.states = append(l.states, mutated)
				}
			}
			for _, src := range l.states {
				ref, blob, err := reference(l.name, src, opts)
				if err != nil {
					return nil, err
				}
				l.refs = append(l.refs, ref)
				l.blobs = append(l.blobs, blob)
			}
			b.libs = append(b.libs, l)
		}
		first := len(b.libs) - len(libNames)
		for _, pair := range corpusPairs() {
			p := &updPair{a: b.libs[first+libIndex(pair[0])], b: b.libs[first+libIndex(pair[1])]}
			for _, ra := range p.a.refs {
				var row [][]byte
				var truth []error
				for _, rb := range p.b.refs {
					rep, want, err := referenceDiff(ra, rb)
					if err != nil {
						return nil, err
					}
					row = append(row, want)
					truth = append(truth, verify(c, pair, rep))
				}
				p.want = append(p.want, row)
				p.truth = append(p.truth, truth)
			}
			b.pairs[p.a] = append(b.pairs[p.a], p)
			b.pairs[p.b] = append(b.pairs[p.b], p)
		}
	}
	return b, nil
}

// setUp brings a fresh service to serving state: every library uploaded
// in its original state and extracted.
func (b *updBench) setUp(dir string) (*service, error) {
	svc, err := startService(dir, 0)
	if err != nil {
		return nil, err
	}
	for _, l := range b.libs {
		fp, err := svc.register(l.name, l.states[0], l.blobs[0])
		if err != nil {
			svc.close()
			return nil, err
		}
		l.fp, l.state, l.puts = fp, 0, 0
	}
	return svc, nil
}

// revision is the next PUT of a library: the next source state in
// rotation, marked with a trailing comment carrying the revision number
// so that every PUT is new content even when the state repeats. The
// comment changes neither the program nor any line number, so the
// policies are the state's offline ones.
func (l *updLib) revision() (state int, sources map[string]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.puts++
	state = (l.state + 1) % len(l.states)
	base := l.states[state]
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	sources = make(map[string]string, len(base))
	for n, s := range base {
		sources[n] = s
	}
	sources[names[0]] += fmt.Sprintf("\n// revision %d\n", l.puts)
	return state, sources
}

// put sends one update and checks the answer: over loopback HTTP, or
// with direct set by calling Store.Update itself, as every other update
// of a traced run does to time the store layer.
func (b *updBench) put(svc *service, l *updLib, direct bool, tr *tracer, op int64, cnt *counts) (time.Duration, int, map[string]string, error) {
	state, sources := l.revision()
	wantFP := oracle.Fingerprint(l.name, sources, wireOptions())
	var res store.UpdateResult
	var d time.Duration
	if direct {
		id := tr.begin("store.update", op, -1, false)
		start := time.Now()
		r, err := svc.st.Update(context.Background(), l.name, sources, store.OptionsWire{})
		d = time.Since(start)
		tr.end(id, false)
		if err != nil {
			return 0, 0, nil, err
		}
		res = *r
	} else {
		body, err := json.Marshal(server.UpdateRequest{Sources: sources})
		if err != nil {
			return 0, 0, nil, err
		}
		start := time.Now()
		status, data, err := svc.call(http.MethodPut, "/v1/libraries/"+l.name, body)
		d = time.Since(start)
		if err != nil {
			return 0, 0, nil, err
		}
		if status != http.StatusCreated {
			return 0, 0, nil, fmt.Errorf("PUT %s: status %d: %.200s", l.name, status, data)
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return 0, 0, nil, fmt.Errorf("PUT %s: %w", l.name, err)
		}
	}
	cnt.add("entries", float64(res.Entries))
	cnt.add("reused", float64(res.Reused))
	if res.Fingerprint != wantFP {
		return 0, 0, nil, fmt.Errorf("PUT %s: fingerprint %s, computed offline %s", l.name, res.Fingerprint, wantFP)
	}
	l.mu.Lock()
	first := l.puts == 1
	l.mu.Unlock()
	if !res.Incremental && !first {
		return 0, 0, nil, fmt.Errorf("PUT %s revision: not incremental (%d entries, %d reused)", l.name, res.Entries, res.Reused)
	}
	l.mu.Lock()
	l.fp, l.state = res.Fingerprint, state
	l.mu.Unlock()
	return d, state, sources, nil
}

func runServeUpdate(cfg runConfig) (*outcome, error) {
	o := &outcome{
		loop:    fmt.Sprintf("closed, lockstep rounds of 1 update (writer) and %d diffs (reader)", updReadsPerUpdate),
		primary: "update",
		tails:   map[string]float64{"update": 90, "mixed_read": 90},
		streams: map[string]*stream{"update": {}, "mixed_read": {}},
	}
	start := time.Now()
	b, err := newUpdBench(cfg.Seed)
	if err != nil {
		return nil, err
	}
	o.referenceS = sinceSeconds(start)
	runtime.GC()
	svc, err := setUpReps(o, "serve-update", (updSetupReps+1)/2, b.setUp)
	if err != nil {
		return nil, err
	}
	o.selfTest = svc.selfTest(b.libs[0].fp, b.libs[0].blobs[0])

	wrng := rand.New(rand.NewSource(cfg.Seed*41 + 1))
	order := golden{n: len(b.libs), x: wrng.Float64()}
	// The reader walks the writer's sequence one round behind.
	readOrder := order
	target, reads := b.libs[int(order.x*float64(order.n))], 0
	var tr *tracer
	var ops atomic.Int64
	cnt := newCounts()
	optsTraced := storeOptions()
	writer := func(s *stream, min int, traced bool) loop {
		puts := 0
		return loop{s: s, min: min, perRound: 1, op: func() (time.Duration, error) {
			l := b.libs[order.draw()]
			if !traced {
				d, _, _, err := b.put(svc, l, false, nil, 0, cnt)
				return d, err
			}
			op := ops.Add(1)
			puts++
			d, state, sources, err := b.put(svc, l, puts%2 == 0, tr, op, cnt)
			if err != nil {
				return 0, err
			}
			// The layers an update runs through, timed on the same sources
			// outside the measured update.
			lib, err := frontend(tr, op, -1, false, l.name, sources, cnt)
			if err != nil {
				return 0, err
			}
			hashLayer(tr, op, -1, false, lib, optsTraced)
			tr.do("policy.export", op, -1, false, func() { _, err = l.refs[state].ExportJSON() })
			return d, err
		}}
	}
	reader := func(s *stream, min int, traced bool) loop {
		return loop{s: s, min: min, perRound: updReadsPerUpdate, op: func() (time.Duration, error) {
			p := b.pairs[target][reads%updReadsPerUpdate]
			if reads++; reads%updReadsPerUpdate == 0 {
				target = b.libs[readOrder.draw()]
			}
			fpA, sa := p.a.current()
			fpB, sb := p.b.current()
			it, err := diffItem(fpA, fpB, p.a.blobs[sa], p.b.blobs[sb], p.want[sa][sb])
			if err != nil {
				return 0, err
			}
			// The served bytes must be the offline report's, and that report
			// must match the corpus ground truth after the edits.
			d, err := read(svc, &it)
			if err == nil && traced {
				err = readLayers(svc, tr, ops.Add(1), &it, cnt)
			}
			if err == nil {
				err = p.truth[sa][sb]
			}
			return d, err
		}}
	}

	up, mixed := o.streams["update"], o.streams["mixed_read"]
	if !cfg.Trace {
		o.timedPhase(cfg.Seconds, []loop{
			writer(up, sampleNeed(o.tails[o.primary]), false),
			reader(mixed, sampleNeed(o.tails["mixed_read"]), false),
		})
		return o, setUpAfter(o, "serve-update", svc, updSetupReps/2, b.setUp)
	}
	baseUp, baseRead := &stream{}, &stream{}
	runLoops(max(1, cfg.Seconds/2), []loop{writer(baseUp, sampleNeed(o.tails[o.primary]), false), reader(baseRead, 1, false)})
	o.untracedRate = baseUp.rate()
	if baseUp.failed+baseRead.failed > 0 {
		o.consistency = append(o.consistency, fmt.Sprintf("untraced phase: %s %s", baseUp.firstErr, baseRead.firstErr))
	}

	tr = newTracer()
	o.tracer = tr
	cnt = newCounts()
	st0 := svc.st.Stats()
	reg0 := scrape(svc.reg)
	gc0 := readGC()
	o.elapsed = runLoops(cfg.Seconds, []loop{writer(up, 1, true), reader(mixed, 1, true)})
	gc1 := readGC()
	reg1 := scrape(svc.reg)
	updates := float64(up.attempted)
	spans := tr.snapshot()
	lt := layerTotals(spans)
	out := map[string]float64{}
	frontendLayers(out, lt, cnt, updates)
	readPathLayers(out, spans, lt, cnt) // policy.export_ms: the writer's exports
	out["store.update_ms"] = perCallMs(lt, "store.update")
	out["oracle.reuse_ratio"] = ratio(cnt.get("reused"), cnt.get("entries"))
	d := func(name string) float64 { return reg1[name] - reg0[name] }
	// Analysis inside the store's extractions, from its extractor series.
	out["analysis.busy_ms"] = 1000 * d("policyoracle_extract_worker_busy_seconds_total") / updates
	out["analysis.method_analyses"] = d("policyoracle_analysis_method_analyses_total") / updates
	out["analysis.memo_hit_ratio"] = ratio(d("policyoracle_analysis_memo_hits_total"),
		d("policyoracle_analysis_memo_hits_total")+d("policyoracle_analysis_method_analyses_total"))
	out["constprop.hit_ratio"] = ratio(d("policyoracle_analysis_cp_hits_total"),
		d("policyoracle_analysis_cp_hits_total")+d("policyoracle_analysis_cp_runs_total"))
	storeLayers(out, st0, svc.st.Stats(), cnt)
	registryLayers(out, reg0, reg1)
	gcLayers(out, gc0, gc1, updates+float64(mixed.attempted))
	out["trace.overhead_pct"] = overheadPct(o.untracedRate, up.rate())
	o.layers = out
	return o, setUpAfter(o, "serve-update", svc, updSetupReps/2, b.setUp)
}
