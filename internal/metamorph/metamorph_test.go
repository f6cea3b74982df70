package metamorph_test

import (
	"fmt"
	"testing"

	"policyoracle/internal/campaign"
	"policyoracle/internal/corpus"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// campaignParams sizes a generated corpus small enough for hundreds of
// mutate+extract rounds in unit-test time but with every structural
// feature the mutators must handle: helper nesting, wrappers, privileged
// blocks, guards, loops, and seeded deviations.
func campaignParams() gen.Params {
	return gen.Params{
		Seed: 1723, Classes: 8, MethodsPerClass: 4, CheckFraction: 0.5,
		MaxDepth: 3, WrapperFanout: 1,
		DropCheck: 1, WeakenMust: 1, SwapCheck: 1, PrivWrap: 1,
		ExtraCheck: 1, ConstGuards: 1, UniquePerLib: 1, PolymorphicNoise: 2,
		FNConditionDivergence: 1, FNAllWrong: 1,
	}
}

// runCampaign runs a local campaign over one library and reports every
// triaged crasher — a deduplicated, minimized invariant violation, or a
// violation of the unmutated baseline — as a test error.
func runCampaign(t *testing.T, lib string, sources map[string]string, opts campaign.Options) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(lib, sources, opts)
	if err != nil {
		t.Fatalf("%s: %v", lib, err)
	}
	for _, c := range res.Crashers {
		t.Errorf("%s: round %d [%s] (%d raw) after %v: %s",
			lib, c.FirstRound, c.Invariant, c.Seen, c.Trace, c.Detail)
	}
	if res.Entries == 0 {
		t.Fatalf("%s: no entry points extracted", lib)
	}
	return res
}

// TestMetamorphicCampaignGeneratedCorpus is the tentpole invariant run:
// 200+ seeded mutation rounds over the generated corpus, each asserting
// the mutant diffs clean against its original, MUST ⊆ MAY everywhere,
// export round-trips byte-identically, and (sampled) parallel extraction
// matches serial byte-for-byte.
func TestMetamorphicCampaignGeneratedCorpus(t *testing.T) {
	c := gen.Generate(campaignParams())
	const roundsPerLib = 70 // 3 libs x 70 = 210 rounds total
	applied := map[string]int{}
	for _, lib := range []string{"jdk", "harmony", "classpath"} {
		// Uniform draws: the catalog-coverage assertion below must not
		// depend on where the guided schedule moves its energy.
		res := runCampaign(t, lib, c.Sources[lib], campaign.Options{
			Seed:      9000,
			Rounds:    roundsPerLib,
			Mutations: 8,
			Uniform:   true,
		})
		for m, n := range res.Applied {
			applied[m] += n
		}
		t.Logf("%s: %d rounds over %d entries in %v, rewrites %v",
			lib, res.Rounds, res.Entries, res.Elapsed.Round(1e6), res.Applied)
	}
	// Every mutator in the catalog must have fired: a mutator that never
	// finds a candidate is dead weight and tests nothing.
	for _, m := range metamorph.Mutators() {
		if applied[m.Name] == 0 {
			t.Errorf("mutator %s never applied in %d rounds", m.Name, 3*roundsPerLib)
		}
	}
}

// TestMetamorphicBuiltinCorpora runs a short campaign over the three
// hand-written corpus implementations — code the generator did not
// shape, with its own idioms (interfaces, inheritance, switch guards).
func TestMetamorphicBuiltinCorpora(t *testing.T) {
	for _, lib := range corpus.Libraries() {
		runCampaign(t, lib, corpus.Sources(lib), campaign.Options{
			Seed:   1234,
			Rounds: 12,
		})
	}
}

// TestMetamorphicSummaryCacheCampaign is the summary-cache leg of the
// invariants: 25 rounds where every extraction — baseline, mutants, and
// the sampled incremental re-extractions — shares one cross-library
// summary cache. Mutants change method bodies, so the cache serves a
// mix of valid splices (untouched entries) and invalidated pins every
// round; any unsound reuse surfaces as an invariant (a)-(e) violation,
// since those all compare extraction outputs byte-for-byte. The campaign
// engine cannot carry this leg: it gives every shard a private cache.
func TestMetamorphicSummaryCacheCampaign(t *testing.T) {
	const rounds = 25
	src := gen.Generate(campaignParams()).Sources["jdk"]
	opts := oracle.DefaultOptions()
	opts.Summaries = oracle.NewSummaryCache(0)
	base, err := oracle.LoadLibrary("jdk", src)
	if err != nil {
		t.Fatal(err)
	}
	base.Extract(opts)
	for r := 0; r < rounds; r++ {
		mutated, applied, err := metamorph.MutateSources(src, int64(4321+r), 8)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := oracle.LoadLibrary(fmt.Sprintf("jdk+r%d", r), mutated)
		if err != nil {
			t.Fatalf("round %d: loading mutant after %v: %v", r, applied, err)
		}
		lib.Extract(opts)
		chk := metamorph.MutantChecks{Parallel: r%8 == 0, Incremental: r%8 == 0}
		for _, v := range metamorph.CheckExtracted(base, lib, mutated, opts, chk) {
			v.Round, v.Mutators = r, applied
			t.Errorf("summary-cache round: %s", v)
		}
	}
	if hits, misses := opts.Summaries.Stats(); hits == 0 || misses == 0 {
		t.Errorf("rounds exercised no cache mix: hits=%d misses=%d", hits, misses)
	}
}

// TestMetamorphicGroundTruthSurvival asserts mutations never mask real
// bugs: after independently mutating all three implementations, every
// seeded ground-truth deviation must still be reported, and nothing
// spurious may appear — gen's VerifyReport hook run on mutated sources.
func TestMetamorphicGroundTruthSurvival(t *testing.T) {
	c := gen.Generate(gen.Small())
	libs := map[string]*oracle.Library{}
	for i, lib := range []string{"jdk", "harmony", "classpath"} {
		mutated, applied, err := metamorph.MutateSources(c.Sources[lib], int64(100+i), 20)
		if err != nil {
			t.Fatalf("mutating %s: %v", lib, err)
		}
		if len(applied) == 0 {
			t.Fatalf("no mutations applied to %s", lib)
		}
		l, err := oracle.LoadLibrary(lib, mutated)
		if err != nil {
			t.Fatalf("loading mutated %s (after %v): %v", lib, applied, err)
		}
		l.Extract(oracle.DefaultOptions())
		libs[lib] = l
		t.Logf("%s mutated by %v", lib, applied)
	}
	for _, pair := range c.Pairs() {
		rep, err := oracle.Diff(libs[pair[0]], libs[pair[1]])
		if err != nil {
			t.Fatal(err)
		}
		for _, problem := range c.VerifyReport(pair, rep) {
			t.Error(problem)
		}
	}
}

// TestMutateSourcesDeterministic pins replayability: one (seed, n) pair
// must always produce the identical mutant.
func TestMutateSourcesDeterministic(t *testing.T) {
	c := gen.Generate(campaignParams())
	a, appA, err := metamorph.MutateSources(c.Sources["jdk"], 77, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, appB, err := metamorph.MutateSources(c.Sources["jdk"], 77, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(appA) != len(appB) {
		t.Fatalf("schedules differ: %v vs %v", appA, appB)
	}
	if len(a) != len(b) {
		t.Fatalf("file sets differ: %d vs %d files", len(a), len(b))
	}
	for f, src := range a {
		if b[f] != src {
			t.Errorf("file %s differs between identical seeds", f)
		}
	}
	// And a different seed must (overwhelmingly) differ somewhere.
	d, _, err := metamorph.MutateSources(c.Sources["jdk"], 78, 10)
	if err != nil {
		t.Fatal(err)
	}
	same := len(d) == len(a)
	if same {
		for f, src := range a {
			if d[f] != src {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 77 and 78 produced byte-identical mutants")
	}
}

// TestCampaignRejectsUnsoundOptions pins the two semantic constraints
// the mutator catalog depends on.
func TestCampaignRejectsUnsoundOptions(t *testing.T) {
	c := gen.Generate(campaignParams())
	broad := oracle.DefaultOptions()
	broad.Events = secmodel.BroadEvents
	if _, err := campaign.Run("jdk", c.Sources["jdk"], campaign.Options{
		Rounds: 1, Oracle: &broad,
	}); err == nil {
		t.Error("broad-events campaign accepted; ParamAccess events are entry-frame relative")
	}
	depth := oracle.DefaultOptions()
	depth.MaxDepth = 3
	if _, err := campaign.Run("jdk", c.Sources["jdk"], campaign.Options{
		Rounds: 1, Oracle: &depth,
	}); err == nil {
		t.Error("bounded-depth campaign accepted; mutators add call frames")
	}
}
