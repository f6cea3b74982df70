package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Start and End are nanoseconds since the tracer started; Parent indexes
// the enclosing span (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocBytes is the heap allocated by the whole process while the span
	// was open, from runtime.MemStats; recorded only where one goroutine
	// does the work, else 0.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. With allocs set it reads
// runtime.MemStats, which stops the world briefly: use it only where a
// single goroutine does the work being measured.
func (t *tracer) begin(name string, op int64, parent int, allocs bool) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Op: op, Parent: parent}
	if allocs {
		s.AllocBytes = totalAlloc()
	}
	s.Start = int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id; allocs must match the begin call.
func (t *tracer) end(id int, allocs bool) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	var alloc uint64
	if allocs {
		alloc = totalAlloc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if allocs {
		t.spans[id].AllocBytes = alloc - t.spans[id].AllocBytes
	}
}

// do runs f inside a span and returns the span's index.
func (t *tracer) do(name string, op int64, parent int, allocs bool, f func()) int {
	id := t.begin(name, op, parent, allocs)
	f()
	t.end(id, allocs)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// layerTotals sums, per span name, the spans' count, total duration, self
// time and allocation. A span's self time is its duration minus the part
// of its interval that its child spans cover (children that overlap each
// other are counted once).
type layerTotal struct {
	Count      int
	Dur, Self  time.Duration
	AllocBytes uint64
}

func layerTotals(spans []span) map[string]*layerTotal {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Dur += time.Duration(s.dur())
		lt.Self += time.Duration(selfTime(spans, i, children[i]))
		lt.AllocBytes += s.AllocBytes
	}
	return out
}

// selfTime is span i's duration minus the union of its children's
// intervals, each clipped to the parent.
func selfTime(spans []span, i int, kids []int) int64 {
	p := spans[i]
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return p.dur() - covered
}

// traceFile names the span dump of one traced run.
func traceFile(workload string, seed int64) string {
	return filepath.Join(outDir(), fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
}
