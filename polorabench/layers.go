package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"policyoracle/internal/ast"
	"policyoracle/internal/callgraph"
	"policyoracle/internal/ir"
	"policyoracle/internal/lang"
	"policyoracle/internal/lexer"
	"policyoracle/internal/oracle"
	"policyoracle/internal/parser"
	"policyoracle/internal/types"
)

// layerDef is one per-layer metric a traced run prints.
type layerDef struct {
	Name, Unit string
}

// perLayer is every per-layer metric, in BENCHMARK.json's order. A traced
// run prints all of them; a layer the workload does not exercise reads 0.
// Unless noted, busy/alloc figures are per operation of the workload's
// primary stream and *_ms figures of store, policy, diff and server are
// per call.
var perLayer = []layerDef{
	{"lexer.busy_ms", "ms"},
	{"lexer.tokens", "count"},
	{"lexer.alloc_mb", "MB"},
	{"parser.busy_ms", "ms"},
	{"parser.alloc_mb", "MB"},
	{"types.busy_ms", "ms"},
	{"types.methods", "count"},
	{"ir.busy_ms", "ms"},
	{"ir.instrs", "count"},
	{"ir.alloc_mb", "MB"},
	{"callgraph.busy_ms", "ms"},
	{"callgraph.resolved_ratio", "ratio"},
	{"oracle.hash_busy_ms", "ms"},
	{"oracle.hash_alloc_mb", "MB"},
	{"analysis.busy_ms", "ms"},
	{"analysis.method_analyses", "count"},
	{"analysis.memo_hit_ratio", "ratio"},
	{"constprop.hit_ratio", "ratio"},
	{"analysis.alloc_mb", "MB"},
	{"oracle.reuse_ratio", "ratio"},
	{"oracle.summary_cache_hit_ratio", "ratio"},
	{"store.update_ms", "ms"},
	{"store.queue_wait_ms", "ms"},
	{"policy.import_ms", "ms"},
	{"policy.export_ms", "ms"},
	{"policy.blob_bytes", "bytes"},
	{"store.read_ms", "ms"},
	{"store.diff_ms", "ms"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_hits", "count"},
	{"store.extractions", "count"},
	{"diff.busy_ms", "ms"},
	{"diff.groups", "count"},
	{"diff.encode_ms", "ms"},
	{"diff.encode_bytes", "bytes"},
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"gc.cycles_per_op", "count"},
	{"gc.pause_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
}

// counts accumulates work counts read at layer boundaries (tokens, IR
// instructions, analysis stats, ...) across the goroutines of a traced
// run.
type counts struct {
	mu sync.Mutex
	m  map[string]float64
}

func newCounts() *counts { return &counts{m: map[string]float64{}} }

func (c *counts) add(name string, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[name] += v
}

func (c *counts) get(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// frontend loads one library the way oracle.LoadLibrary does, one layer
// call at a time, so each layer gets a span: lexer (Tokenize, measured on
// its own: ParseFile tokenizes internally), parser (ParseFile), types,
// ir and callgraph (NewResolver). allocs marks spans that may read
// MemStats (one goroutine doing the work).
func frontend(tr *tracer, op int64, parent int, allocs bool, name string, sources map[string]string, cnt *counts) (*oracle.Library, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	tokens := 0
	tr.do("lexer", op, parent, allocs, func() {
		for _, n := range names {
			tokens += len(lexer.Tokenize(n, sources[n], &lang.Diagnostics{}))
		}
	})
	diags := &lang.Diagnostics{}
	files := make([]*ast.File, 0, len(names))
	tr.do("parser", op, parent, allocs, func() {
		for _, n := range names {
			files = append(files, parser.ParseFile(n, sources[n], diags))
		}
	})
	var tp *types.Program
	tr.do("types", op, parent, allocs, func() { tp = types.Build(name, files, diags) })
	var prog *ir.Program
	tr.do("ir", op, parent, allocs, func() { prog = ir.LowerProgram(tp, diags) })
	if diags.HasErrors() {
		return nil, fmt.Errorf("loading %s: %w", name, diags.Err())
	}
	var res *callgraph.Resolver
	tr.do("callgraph", op, parent, allocs, func() { res = callgraph.NewResolver(prog) })
	instrs := 0
	for _, f := range prog.Funcs {
		instrs += f.NumInstrs()
	}
	cnt.add("tokens", float64(tokens))
	cnt.add("methods", float64(len(tp.AllMethods())))
	cnt.add("instrs", float64(instrs))
	return &oracle.Library{Name: name, Prog: prog, Resolver: res, Diags: diags}, nil
}

// hashLayer times oracle.MethodHashes on lib, the publish-time hashing
// that Extract and every store update also perform internally.
func hashLayer(tr *tracer, op int64, parent int, allocs bool, lib *oracle.Library, opts oracle.Options) {
	d := opts.Normalize().Domain
	tr.do("oracle.hash", op, parent, allocs, func() { oracle.MethodHashes(lib.Prog, lib.Resolver, d) })
}

// frontendLayers fills the frontend and hashing per-layer metrics from a
// traced phase's totals, per operation.
func frontendLayers(out map[string]float64, lt map[string]*layerTotal, cnt *counts, ops float64) {
	ms := func(name string) float64 { return msOf(lt, name) / ops }
	mb := func(name string) float64 { return mbOf(lt, name) / ops }
	out["lexer.busy_ms"] = ms("lexer")
	out["lexer.tokens"] = cnt.get("tokens") / ops
	out["lexer.alloc_mb"] = mb("lexer")
	out["parser.busy_ms"] = ms("parser") - ms("lexer")
	out["parser.alloc_mb"] = mb("parser") - mb("lexer")
	out["types.busy_ms"] = ms("types")
	out["types.methods"] = cnt.get("methods") / ops
	out["ir.busy_ms"] = ms("ir")
	out["ir.instrs"] = cnt.get("instrs") / ops
	out["ir.alloc_mb"] = mb("ir")
	out["callgraph.busy_ms"] = ms("callgraph")
	out["oracle.hash_busy_ms"] = ms("oracle.hash")
	out["oracle.hash_alloc_mb"] = mb("oracle.hash")
}

// msOf is the total self time of the spans named name, in ms.
func msOf(lt map[string]*layerTotal, name string) float64 {
	if t := lt[name]; t != nil {
		return float64(t.Self) / float64(time.Millisecond)
	}
	return 0
}

// perCallMs is the mean self time of one span named name, in ms.
func perCallMs(lt map[string]*layerTotal, name string) float64 {
	if t := lt[name]; t != nil && t.Count > 0 {
		return float64(t.Self) / float64(time.Millisecond) / float64(t.Count)
	}
	return 0
}

func mbOf(lt map[string]*layerTotal, name string) float64 {
	if t := lt[name]; t != nil {
		return float64(t.AllocBytes) / (1 << 20)
	}
	return 0
}

// gcLayers fills the collector figures per operation over a phase.
func gcLayers(out map[string]float64, before, after gcStats, ops float64) {
	out["gc.cycles_per_op"] = float64(after.cycles-before.cycles) / ops
	out["gc.pause_ms_per_op"] = float64(after.pauseNs-before.pauseNs) / 1e6 / ops
}

// overheadPct compares a traced phase's rate to an untraced phase's.
func overheadPct(untraced, traced float64) float64 {
	return 100 * (1 - ratio(traced, untraced))
}
