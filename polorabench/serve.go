package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
)

// readItem is one served read: a POST /v1/extract or /v1/diff request and
// the bytes the benchmark computed offline that it must return.
type readItem struct {
	diff  bool
	path  string
	body  []byte
	want  []byte
	fps   []string // the fingerprints read: one for extract, a and b for diff
	blobs [][]byte // their offline blobs, for the traced layer calls
}

func extractItem(fp string, blob []byte) (readItem, error) {
	body, err := json.Marshal(map[string]string{"fingerprint": fp})
	return readItem{path: "/v1/extract", body: body, want: blob, fps: []string{fp}, blobs: [][]byte{blob}}, err
}

func diffItem(fpA, fpB string, blobA, blobB, want []byte) (readItem, error) {
	body, err := json.Marshal(server.DiffRequest{A: fpA, B: fpB})
	return readItem{diff: true, path: "/v1/diff", body: body, want: want,
		fps: []string{fpA, fpB}, blobs: [][]byte{blobA, blobB}}, err
}

// read sends one read over loopback HTTP and checks its bytes.
func read(svc *service, it *readItem) (time.Duration, error) {
	start := time.Now()
	status, got, err := svc.call(http.MethodPost, it.path, it.body)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	return d, checkRead(it, status, got)
}

func checkRead(it *readItem, status int, got []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", it.path, status, got)
	}
	if !bytes.Equal(got, it.want) {
		return fmt.Errorf("%s %v: %d response bytes differ from the %d offline bytes", it.path, it.fps, len(got), len(it.want))
	}
	return nil
}

// readLayers runs, in a traced run and outside the measured read, the
// read just served once more through each layer boundary: the store
// call the handler makes (PoliciesContext, or DiffContext then
// EncodeJSON), the handler into a recorder, and the loopback round trip.
// The read has just brought its blobs into the LRU, so all three find
// them there and their differences are the handler's and the
// transport's own cost. It then times the policy and diff calls the read
// makes, on the offline blobs: ImportJSON of each, then Compare and
// EncodeJSON for a diff, or a re-export for an extract.
func readLayers(svc *service, tr *tracer, op int64, it *readItem, cnt *counts) error {
	var got []byte
	var err error
	if it.diff {
		var rep *diff.Report
		tr.do("store.diff", op, -1, false, func() { rep, err = svc.st.DiffContext(context.Background(), it.fps[0], it.fps[1]) })
		if err == nil {
			tr.do("store.encode", op, -1, false, func() { got, err = rep.EncodeJSON() })
		}
	} else {
		tr.do("store.read", op, -1, false, func() { got, err = svc.st.PoliciesContext(context.Background(), it.fps[0]) })
	}
	if err == nil {
		err = checkRead(it, http.StatusOK, got)
	}
	if err != nil {
		return err
	}
	var status int
	tr.do("handler", op, -1, false, func() { status, got = svc.serve(http.MethodPost, it.path, it.body) })
	if err := checkRead(it, status, got); err != nil {
		return err
	}
	tr.do("http", op, -1, false, func() { status, got, err = svc.call(http.MethodPost, it.path, it.body) })
	if err == nil {
		err = checkRead(it, status, got)
	}
	if err != nil {
		return err
	}
	cnt.add("reads", 1)
	cnt.add("repeat_hits", float64(3*len(it.fps)))

	pps := make([]*policy.ProgramPolicies, len(it.blobs))
	for i, blob := range it.blobs {
		tr.do("policy.import", op, -1, false, func() { pps[i], err = policy.ImportJSON(blob) })
		if err != nil {
			return err
		}
		cnt.add("blobs", 1)
		cnt.add("blob_bytes", float64(len(blob)))
	}
	if !it.diff {
		tr.do("policy.export", op, -1, false, func() { _, err = pps[0].ExportJSON() })
		return err
	}
	var rep *diff.Report
	tr.do("diff", op, -1, false, func() { rep = diff.Compare(pps[0], pps[1]) })
	var wire []byte
	tr.do("diff.encode", op, -1, false, func() { wire, err = rep.EncodeJSON() })
	cnt.add("diffs", 1)
	cnt.add("groups", float64(len(rep.Groups)))
	cnt.add("encode_bytes", float64(len(wire)))
	return err
}

// readPathLayers fills the read-side per-layer figures from a traced
// phase: per-call store, policy and diff times, and the handler's and
// the transport's cost per read.
func readPathLayers(out map[string]float64, spans []span, lt map[string]*layerTotal, cnt *counts) {
	out["store.read_ms"] = perCallMs(lt, "store.read")
	out["store.diff_ms"] = perCallMs(lt, "store.diff")
	out["policy.import_ms"] = perCallMs(lt, "policy.import")
	out["policy.export_ms"] = perCallMs(lt, "policy.export")
	out["policy.blob_bytes"] = ratio(cnt.get("blob_bytes"), cnt.get("blobs"))
	out["diff.busy_ms"] = perCallMs(lt, "diff")
	out["diff.encode_ms"] = perCallMs(lt, "diff.encode")
	out["diff.groups"] = ratio(cnt.get("groups"), cnt.get("diffs"))
	out["diff.encode_bytes"] = ratio(cnt.get("encode_bytes"), cnt.get("diffs"))
	out["server.handler_ms"], out["server.transport_ms"] = readOverheads(spans)
}

// readOverheads pairs the three repeated calls of each read and returns
// the medians over reads of handler minus store time and of round trip
// minus handler time, in ms. Medians, because a concurrent client's
// work lands on one call of a pair now and then and swamps the
// sub-millisecond difference.
func readOverheads(spans []span) (handler, transport float64) {
	type calls struct{ store, handler, http int64 }
	byOp := map[int64]*calls{}
	for _, s := range spans {
		c := byOp[s.Op]
		if c == nil {
			c = &calls{}
			byOp[s.Op] = c
		}
		switch s.Name {
		case "store.read", "store.diff", "store.encode":
			c.store += s.dur()
		case "handler":
			c.handler += s.dur()
		case "http":
			c.http += s.dur()
		}
	}
	var h, t []float64
	for _, c := range byOp {
		if c.handler > 0 && c.http > 0 {
			h = append(h, float64(c.handler-c.store)/1e6)
			t = append(t, float64(c.http-c.handler)/1e6)
		}
	}
	if len(h) == 0 {
		return 0, 0
	}
	return median(h), median(t)
}

// storeLayers fills the store tier figures from Stats taken around a
// phase, leaving out the mem hits of readLayers' repeated reads.
func storeLayers(out map[string]float64, before, after store.Stats, cnt *counts) {
	mem := float64(after.MemHits-before.MemHits) - cnt.get("repeat_hits")
	disk := float64(after.DiskHits - before.DiskHits)
	miss := float64(after.Misses - before.Misses)
	out["store.mem_hit_ratio"] = ratio(mem, mem+disk+miss)
	out["store.disk_hits"] = disk
	out["store.extractions"] = float64(after.Extractions - before.Extractions)
}

// registryLayers fills the figures read from the telemetry registry's
// series over a phase.
func registryLayers(out map[string]float64, before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	hit, miss := d("polora_summary_cache_hit_total"), d("polora_summary_cache_miss_total")
	out["oracle.summary_cache_hit_ratio"] = ratio(hit, hit+miss)
	out["store.queue_wait_ms"] = 1000 * ratio(d("polorad_store_extract_queue_wait_seconds_sum"), d("polorad_store_extract_queue_wait_seconds_count"))
}

// ---- serve-read ----

const (
	readCorpora    = 12 // 36 bundles, 36 diff pairs
	readMinClasses = 16
	readMaxClasses = 48
	readCache      = 16 // blob LRU entries: below the 36-blob working set
	readClients    = 2
	readZipfS      = 1.2 // zipf-mandelbrot weights (v+rank)^-s: the top
	readZipfV      = 8   // item draws 7% of reads, the top eight 36%
	readSetupReps  = 5
	readWarmOps    = 40 // per client, before timing
)

// readBench is the serve-read input set: every bundle with its offline
// blob, and the read items ranked by popularity.
type readBench struct {
	bundles []*bundle
	items   []readItem // by popularity rank
}

func newReadBench(seed int64) (*readBench, error) {
	sizes := corpusSizes(readCorpora, readMinClasses, readMaxClasses)
	opts := storeOptions()
	b := &readBench{}
	var items []readItem
	for ci, n := range sizes {
		c := genCorpus(seed*1000+int64(ci), n)
		first := len(b.bundles)
		for _, lib := range libNames {
			name := fmt.Sprintf("c%d-%s", ci, lib)
			pp, blob, err := reference(name, c.Sources[lib], opts)
			if err != nil {
				return nil, err
			}
			fp := oracle.Fingerprint(name, c.Sources[lib], wireOptions())
			b.bundles = append(b.bundles, &bundle{name: name, src: c.Sources[lib], fp: fp, pp: pp, blob: blob})
			it, err := extractItem(fp, blob)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
		for _, pair := range corpusPairs() {
			ba, bb := b.bundles[first+libIndex(pair[0])], b.bundles[first+libIndex(pair[1])]
			_, want, err := referenceDiff(ba.pp, bb.pp)
			if err != nil {
				return nil, err
			}
			it, err := diffItem(ba.fp, bb.fp, ba.blob, bb.blob, want)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
	}
	// Popularity ranks are fixed, not drawn from the seed: which kind and
	// size of read is hot stays the same from run to run, and the seed
	// varies only the contents and the draw sequence. Ranks go diff, diff,
	// extract, ..., so diffs draw about 60% of reads and the median read
	// lies well inside the diffs' latencies rather than on the edge
	// between the fast extract reads and the slower diffs; within a kind,
	// sizes follow spreadOrder, so neighbouring ranks differ in size.
	var exts, diffs []readItem
	for _, it := range items {
		if it.diff {
			diffs = append(diffs, it)
		} else {
			exts = append(exts, it)
		}
	}
	eo, do := spreadOrder(len(exts)), spreadOrder(len(diffs))
	for len(eo)+len(do) > 0 {
		for k := 0; k < 2 && len(do) > 0; k++ {
			b.items = append(b.items, diffs[do[0]])
			do = do[1:]
		}
		if len(eo) > 0 {
			b.items = append(b.items, exts[eo[0]])
			eo = eo[1:]
		}
	}
	return b, nil
}

func libIndex(name string) int {
	for i, n := range libNames {
		if n == name {
			return i
		}
	}
	panic("unknown library " + name)
}

// setUp brings a fresh service to serving state: every bundle uploaded
// and extracted.
func (b *readBench) setUp(dir string) (*service, error) {
	svc, err := startService(dir, readCache)
	if err != nil {
		return nil, err
	}
	for _, bd := range b.bundles {
		if _, err := svc.register(bd.name, bd.src, bd.blob); err != nil {
			svc.close()
			return nil, err
		}
	}
	return svc, nil
}

func runServeRead(cfg runConfig) (*outcome, error) {
	o := &outcome{
		loop:    fmt.Sprintf("closed, %d clients, zipf s=%g v=%d over %d items", readClients, readZipfS, readZipfV, readCorpora*6),
		primary: "read",
		tails:   map[string]float64{"read": 99},
		streams: map[string]*stream{"read": {}},
	}
	start := time.Now()
	b, err := newReadBench(cfg.Seed)
	if err != nil {
		return nil, err
	}
	o.referenceS = sinceSeconds(start)
	runtime.GC()
	svc, err := setUpReps(o, "serve-read", (readSetupReps+1)/2, b.setUp)
	if err != nil {
		return nil, err
	}
	o.selfTest = svc.selfTest(b.bundles[0].fp, b.bundles[0].blob)

	// Each client replays its own seeded draw sequence.
	clients := make([]*rand.Zipf, readClients)
	for c := range clients {
		rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(c)))
		clients[c] = rand.NewZipf(rng, readZipfS, readZipfV, uint64(len(b.items)-1))
	}
	var tr *tracer
	var ops atomic.Int64
	cnt := newCounts()
	loops := func(s *stream, min int, traced bool) []loop {
		ls := make([]loop, readClients)
		for c := range ls {
			zipf := clients[c]
			ls[c] = loop{s: s, min: min, op: func() (time.Duration, error) {
				it := &b.items[zipf.Uint64()]
				d, err := read(svc, it)
				if err == nil && traced {
					err = readLayers(svc, tr, ops.Add(1), it, cnt)
				}
				return d, err
			}}
		}
		return ls
	}
	warm := &stream{}
	runLoops(0, loops(warm, readWarmOps*readClients, false))
	if warm.failed > 0 {
		o.consistency = append(o.consistency, "warm-up: "+warm.firstErr)
	}

	s := o.streams["read"]
	st0 := svc.st.Stats()
	if !cfg.Trace {
		o.timedPhase(cfg.Seconds, loops(s, sampleNeed(o.tails[o.primary]), false))
		st1 := svc.st.Stats()
		o.tierHits = map[string]uint64{"mem": st1.MemHits - st0.MemHits, "disk": st1.DiskHits - st0.DiskHits}
		if n := st1.Extractions - st0.Extractions; n != 0 {
			o.consistency = append(o.consistency, fmt.Sprintf("%d extractions during the timed phase; reads must all be served from the store tiers", n))
		}
		return o, setUpAfter(o, "serve-read", svc, readSetupReps/2, b.setUp)
	}
	base := &stream{}
	runLoops(max(1, cfg.Seconds/2), loops(base, sampleNeed(o.tails[o.primary]), false))
	o.untracedRate = base.rate()

	tr = newTracer()
	o.tracer = tr
	st0 = svc.st.Stats()
	reg0 := scrape(svc.reg)
	gc0 := readGC()
	o.elapsed = runLoops(cfg.Seconds, loops(s, 1, true))
	gc1 := readGC()
	out := map[string]float64{}
	spans := tr.snapshot()
	lt := layerTotals(spans)
	readPathLayers(out, spans, lt, cnt)
	storeLayers(out, st0, svc.st.Stats(), cnt)
	registryLayers(out, reg0, scrape(svc.reg))
	gcLayers(out, gc0, gc1, float64(s.attempted))
	out["trace.overhead_pct"] = overheadPct(o.untracedRate, s.rate())
	o.layers = out
	return o, setUpAfter(o, "serve-read", svc, readSetupReps/2, b.setUp)
}
