package oracle

import (
	"context"
	"errors"
	"fmt"

	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
	"policyoracle/internal/types"
)

// This file implements entry-policy reuse. An entry point's policy
// depends only on the extraction options and the IR of the methods its
// analysis visited (its dependency set), so a policy recorded together
// with the hashes its dependencies had at the time is byte-identical to
// a fresh analysis of any program in which every one of those methods
// still hashes the same. One splice step applies that argument to two
// sources: the previous extraction of the same library (incremental
// extraction, ExtractIncremental) and the process-wide SummaryCache.
// Because the policy wire format is a byte fixed point under
// export/import, the spliced result is byte-identical to a from-scratch
// Extract of the new sources — asserted by the oracle tests and the
// metamorph incremental invariant.

// ErrNoPrevious reports an incremental extraction whose previous library
// carries no extracted policies to splice from.
var ErrNoPrevious = errors.New("oracle: previous library has no extracted policies to seed an incremental extraction")

// IncrementalStats describes how much work one incremental extraction
// reused versus redid.
type IncrementalStats struct {
	// Entries is the number of API entry points in the new program;
	// Reused of them were spliced from the previous extraction and
	// Reanalyzed were not (they went through the MAY/MUST analyses, or
	// were spliced from the summary cache).
	Entries    int
	Reused     int
	Reanalyzed int
	// HashedMethods is the number of methods content-hashed in the new
	// program; ChangedMethods of them are new or hash differently from
	// the previous extraction.
	HashedMethods  int
	ChangedMethods int
	// Full marks an extraction the previous one could not seed: it used
	// different options or carries no incremental state.
	Full bool
}

// ExtractIncremental reloads sources and extracts policies for them,
// reusing prev's per-entry policies wherever prev's dependency sets and
// method hashes prove the analysis inputs are unchanged. The returned
// library's policies are byte-identical (in the wire format, and in
// diff -json reports) to a from-scratch Extract of the same sources
// under the same options.
//
// prev must have been extracted under the same options (including the
// CollectPaths/CollectGuards display flags, which shape in-memory
// policies); otherwise nothing is reused from it, which
// IncrementalStats.Full reports.
func ExtractIncremental(prev *Library, sources map[string]string, opts Options) (*Library, *IncrementalStats, error) {
	if prev == nil || prev.Policies == nil {
		return nil, nil, ErrNoPrevious
	}
	lib, err := LoadLibrary(prev.Name, sources)
	if err != nil {
		return nil, nil, err
	}
	st, err := lib.ExtractSeeded(context.Background(), prev, opts)
	if err != nil {
		return nil, nil, err
	}
	return lib, st, nil
}

// ExtractSeeded is ExtractContext seeded from prev, a previous
// extraction of an earlier version of this library (nil for none): see
// splice. A prev that cannot prove anything about this extraction — a
// different option key (see extractKey) or no incremental state — is
// skipped and the stats report Full. The incremental instruments of
// opts.Telemetry are fed only when prev is non-nil.
func (l *Library) ExtractSeeded(ctx context.Context, prev *Library, opts Options) (*IncrementalStats, error) {
	opts = opts.Normalize()
	if tm := opts.Telemetry; tm != nil {
		tm.Extractions.With(opts.Domain.ID()).Inc()
	}
	key := extractKey(opts)
	hashes := l.methodHashes(opts.Domain)
	entries := l.EntryPoints()
	st := &IncrementalStats{Entries: len(entries), HashedMethods: len(hashes)}
	seeded := prev != nil
	if seeded {
		st.ChangedMethods = countChanged(prev.MethodHashes, hashes)
		if prev.Policies == nil || prev.ExtractedOpts != key || len(prev.MethodHashes) == 0 || len(prev.EntryDeps) == 0 {
			prev = nil
		}
	}
	st.Full = prev == nil

	pp := policy.NewProgramPolicies(l.Name)
	if opts.Domain != secmodel.SecurityManager() {
		pp.Domain = opts.Domain.ID()
	}
	deps := make(map[string][]string, len(entries))
	fresh := splice(opts, key, hashes, prev, entries, pp, deps, st)
	st.Reanalyzed = st.Entries - st.Reused
	if len(fresh) > 0 {
		if err := l.extractEntries(ctx, opts, key, hashes, fresh, pp, deps); err != nil {
			return nil, err
		}
	}
	l.Policies = pp
	l.EntryDeps = deps
	l.MethodHashes = hashes
	l.ExtractedOpts = key
	if seeded {
		observeIncremental(opts.Telemetry, st, deps)
	}
	return st, nil
}

// splice is the one place an extraction reuses an entry policy instead
// of analyzing it. Each entry is taken from prev (the previous
// extraction of this library, already checked to share the option key)
// or else from opts.Summaries, and from either only when pinned proves
// its dependency set unchanged. Reused entries are written into pp and
// deps, and st.Reused counts those taken from prev; the entries left to
// analyze are returned.
func splice(opts Options, key string, hashes map[string]string, prev *Library, entries []*types.Method, pp *policy.ProgramPolicies, deps map[string][]string, st *IncrementalStats) []*types.Method {
	var fresh []*types.Method
	hits := 0
	for _, m := range entries {
		sig := m.Qualified()
		if prev != nil {
			ds := prev.EntryDeps[sig]
			prevHash := func(i int) (string, bool) {
				h, ok := prev.MethodHashes[ds[i]]
				return h, ok
			}
			if ep := prev.Policies.Entries[sig]; ep != nil && pinned(ds, prevHash, hashes) {
				pp.Entries[sig], deps[sig] = ep, ds
				st.Reused++
				continue
			}
		}
		if opts.Summaries != nil {
			if ep, ds, ok := opts.Summaries.lookup(key, sig, hashes); ok {
				pp.Entries[sig], deps[sig] = ep, ds
				hits++
				continue
			}
		}
		fresh = append(fresh, m)
	}
	if tm := opts.Telemetry; tm != nil && opts.Summaries != nil {
		tm.SummaryCacheHits.With(opts.Domain.ID()).Add(float64(hits))
		tm.SummaryCacheMisses.With(opts.Domain.ID()).Add(float64(len(fresh)))
	}
	return fresh
}

// pinned is the dependency-pin check behind every reuse: a policy
// recorded with dependency set deps, whose i-th dependency then hashed
// as recorded(i), can be spliced into a program with method hashes cur
// iff every dependency still exists there with that hash. An empty set,
// or a dependency that disappeared, changed, or was never recorded,
// forces re-analysis.
func pinned(deps []string, recorded func(i int) (string, bool), cur map[string]string) bool {
	if len(deps) == 0 {
		return false
	}
	for i, d := range deps {
		want, ok := recorded(i)
		if h, found := cur[d]; !ok || !found || h != want {
			return false
		}
	}
	return true
}

func countChanged(prev, cur map[string]string) int {
	n := 0
	for sig, h := range cur {
		if ph, ok := prev[sig]; !ok || ph != h {
			n++
		}
	}
	return n
}

// extractKey is the option key a reused entry policy must match: the
// canonical semantic options plus the display-collection flags.
// CollectPaths/CollectGuards do not affect the wire format, but spliced
// EntryPolicy values are shared in memory, so mixing flags would hand
// callers policies whose display data is inconsistent across entries.
func extractKey(o Options) string {
	return fmt.Sprintf("%s paths=%t guards=%t", CanonicalOptions(o), o.CollectPaths, o.CollectGuards)
}

func observeIncremental(tm *telemetry.ExtractMetrics, st *IncrementalStats, deps map[string][]string) {
	if tm == nil {
		return
	}
	tm.IncrementalReused.Add(float64(st.Reused))
	tm.IncrementalReanalyzed.Add(float64(st.Reanalyzed))
	tm.IncrementalHashed.Add(float64(st.HashedMethods))
	for _, d := range deps {
		tm.DepSetSize.Observe(float64(len(d)))
	}
}
