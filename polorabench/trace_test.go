package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus the part of it its children
// cover; overlapping children count once, and children are clipped to
// the parent.
func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "lexer", Parent: 0, Start: 10, End: 30},
		{Name: "parser", Parent: 0, Start: 20, End: 50},   // overlaps lexer: 10..50 covered
		{Name: "ir", Parent: 0, Start: 60, End: 70},       // 10 more
		{Name: "ir", Parent: 3, Start: 62, End: 65},       // grandchild: not the op's child
		{Name: "late", Parent: 0, Start: 95, End: 120},    // clipped to 95..100
		{Name: "other", Parent: -1, Start: 200, End: 210}, // another root
	}
	lt := layerTotals(spans)
	want := map[string]struct {
		count     int
		dur, self time.Duration
	}{
		"op":     {1, 100, 100 - 40 - 10 - 5},
		"lexer":  {1, 20, 20},
		"parser": {1, 30, 30},
		"ir":     {2, 13, 7 + 3},
		"late":   {1, 25, 25},
		"other":  {1, 10, 10},
	}
	for name, w := range want {
		got := lt[name]
		if got == nil {
			t.Errorf("%s: missing", name)
			continue
		}
		if got.Count != w.count || got.Dur != w.dur || got.Self != w.self {
			t.Errorf("%s: count %d dur %d self %d, want %d %d %d", name, got.Count, got.Dur, got.Self, w.count, w.dur, w.self)
		}
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 1, -1, false)
	child := tr.do("lexer", 1, root, true, func() { _ = make([]byte, 1<<20) })
	tr.end(root, false)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child].Parent != root || spans[child].Op != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[child].End < spans[child].Start || spans[root].End < spans[child].End {
		t.Errorf("child %+v not inside root %+v", spans[child], spans[root])
	}
	if spans[child].AllocBytes < 1<<20 {
		t.Errorf("child allocated %d bytes, want at least 1 MiB", spans[child].AllocBytes)
	}
	// A nil tracer records nothing and does not panic.
	var off *tracer
	off.end(off.do("x", 0, -1, true, func() {}), true)
}
