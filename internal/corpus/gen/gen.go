// Package gen deterministically synthesizes paper-scale library
// implementations for the security policy oracle's evaluation harness.
//
// From one seed it derives a shared API skeleton (packages, classes,
// entry-point signatures, check patterns) and materializes it as three
// independent implementations whose internal structure differs (helper
// nesting, naming, check placement) but whose security policies agree —
// except at seeded, ground-truth-labeled inconsistencies of the kinds the
// paper reports: dropped checks, MUST weakened to MAY, swapped checks,
// checks wrapped in privileged blocks, and extra-functionality checks.
// Constant-guard patterns à la Figure 4 are also generated so that
// disabling interprocedural constant propagation produces exactly the
// "false positives eliminated by ICP" population of Table 3.
package gen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"policyoracle/internal/corpus"
	"policyoracle/internal/secmodel"
)

// Params sizes the generated corpus.
type Params struct {
	Seed int64
	// Domain selects the check domain the corpus is generated for: the
	// guard class emitted into the runtime prelude, the check pool
	// deviations draw from, and whether privileged-block patterns exist.
	// Empty means the default SecurityManager domain; CryptoDomainID
	// selects the crypto-API misuse domain, whose checks (IV freshness,
	// cipher mode, key size, RNG seeding, ...) guard the native
	// cipher-call leaves the way SecurityManager checks guard JNI calls.
	// Domains without privileged-block semantics force PrivWrap to 0 and
	// fold the pPrivInner pattern onto a plain MUST check.
	Domain string
	// Classes is the number of generated API classes per implementation.
	Classes int
	// MethodsPerClass is the number of public entry methods per class.
	MethodsPerClass int
	// CheckFraction is the fraction of entry methods guarded by checks
	// (the paper's libraries have ~4-5% checking entry points).
	CheckFraction float64
	// MaxDepth is the maximum helper-call nesting under an entry point.
	MaxDepth int
	// WrapperFanout adds up to this many extra public wrappers per checked
	// method, producing multi-manifestation root causes.
	WrapperFanout int

	// Seeded inconsistencies, counted per implementation pair population.
	DropCheck   int // vulnerabilities: one library misses a check
	WeakenMust  int // MUST in others, MAY in one
	SwapCheck   int // different check method used
	PrivWrap    int // check moved inside doPrivileged (semantic no-op)
	ExtraCheck  int // extra-functionality check in one library
	ConstGuards int // Figure 4 patterns (benign; FPs only without ICP)
	// UniquePerLib adds entry points present in only one implementation.
	UniquePerLib int
	// PolymorphicNoise adds entry methods whose virtual call sites have
	// two allocated receiver classes and therefore do not resolve to a
	// unique target — reproducing the paper's ~97% resolution rate (the
	// analysis skips such sites). Identical across implementations.
	PolymorphicNoise int

	// The two seeded FALSE-NEGATIVE populations of Section 6.4 — real
	// semantic differences the oracle cannot detect by design:
	//
	// FNConditionDivergence seeds methods whose MAY check executes under
	// DIFFERENT conditions in each implementation; the flat MAY sets are
	// equal, so comparison case 3a does not fire ("our comparison of may
	// policies does not consider the conditions under which the checks
	// are executed").
	FNConditionDivergence int
	// FNAllWrong seeds methods missing the same check in ALL
	// implementations ("two libraries may both implement the security
	// policy incorrectly and in the same way").
	FNAllWrong int
}

// Small returns parameters for fast unit tests.
func Small() Params {
	return Params{
		Seed: 42, Classes: 24, MethodsPerClass: 6, CheckFraction: 0.25,
		MaxDepth: 3, WrapperFanout: 2,
		DropCheck: 4, WeakenMust: 2, SwapCheck: 2, PrivWrap: 2,
		ExtraCheck: 2, ConstGuards: 3, UniquePerLib: 4, PolymorphicNoise: 6,
		FNConditionDivergence: 2, FNAllWrong: 2,
	}
}

// CryptoSmall returns Small-sized parameters for the crypto-API misuse
// domain: the same skeleton shape, with deviations drawn from the
// CryptoGuard check pool. The seeded kinds read as the classic misuse
// population — a dropped checkIvFresh is a constant/reused IV, a dropped
// checkCipherMode an unvetted ECB mode, a weakened checkKeySize a short
// key, a dropped checkSeeded an unseeded RNG. PrivWrap is zero because
// the crypto domain has no privileged-block semantics.
func CryptoSmall() Params {
	p := Small()
	p.Domain = secmodel.CryptoDomainID
	p.PrivWrap = 0
	return p
}

// PaperScale returns parameters sized to the paper's Table 1 shape:
// thousands of entry points, a few hundred of them checking.
func PaperScale() Params {
	return Params{
		Seed: 2011, Classes: 320, MethodsPerClass: 14, CheckFraction: 0.028,
		MaxDepth: 4, WrapperFanout: 3,
		DropCheck: 12, WeakenMust: 3, SwapCheck: 4, PrivWrap: 4,
		ExtraCheck: 8, ConstGuards: 10, UniquePerLib: 120, PolymorphicNoise: 140,
		FNConditionDivergence: 6, FNAllWrong: 6,
	}
}

// Libraries generated.
var libNames = []string{"jdk", "harmony", "classpath"}

// IssueKind labels a seeded inconsistency.
type IssueKind int

// Seeded inconsistency kinds.
const (
	DropCheck IssueKind = iota
	WeakenMust
	SwapCheck
	PrivWrap
	ExtraCheck
)

func (k IssueKind) String() string {
	switch k {
	case DropCheck:
		return "drop-check"
	case WeakenMust:
		return "weaken-must"
	case SwapCheck:
		return "swap-check"
	case PrivWrap:
		return "priv-wrap"
	case ExtraCheck:
		return "extra-check"
	}
	return "?"
}

// IsVulnerability reports whether the seeded kind is a security
// vulnerability (vs an interoperability difference).
func (k IssueKind) IsVulnerability() bool {
	switch k {
	case DropCheck, PrivWrap, WeakenMust:
		return true
	}
	return false
}

// SeededIssue is the ground truth for one generated inconsistency.
type SeededIssue struct {
	ID          string
	Kind        IssueKind
	Responsible string // the deviating library
	// EntryClass/EntryMethod identify the primary manifesting entry point;
	// wrappers of the same method manifest the same root cause.
	EntryClass  string
	EntryMethod string
	Check       string // check method name involved
	// Manifestations is the number of entry points exposing the issue
	// (the method itself plus its wrappers).
	Manifestations int
}

// MatchesEntry reports whether the qualified entry signature manifests
// this issue: the method itself, its public wrappers, or — for guard
// patterns — its null-delegating Default twin.
func (si *SeededIssue) MatchesEntry(sig string) bool {
	return strings.Contains(sig, si.EntryClass+".") &&
		(strings.Contains(sig, "."+si.EntryMethod+"(") ||
			strings.Contains(sig, "."+si.EntryMethod+"Wrap") ||
			strings.Contains(sig, "."+si.EntryMethod+"Default("))
}

// Corpus is one generated three-implementation workload.
type Corpus struct {
	Params Params
	// Domain is the resolved check-domain ID the corpus was generated
	// for (never empty; the default resolves to DefaultDomainID).
	// Extract the sources under this domain or every seeded check reads
	// as plain code.
	Domain  string
	Sources map[string]map[string]string // lib → file → source
	Issues  []SeededIssue
	// ConstGuardEntries lists entry signatures that are spuriously
	// reported when ICP is disabled (the Table 3 ICP row's ground truth).
	ConstGuardEntries []string
	// FalseNegatives lists the seeded differences the oracle must miss
	// (Section 6.4's two false-negative causes).
	FalseNegatives []SeededFN
}

// poolCheck is one check method of a generation profile's pool.
type poolCheck struct {
	Name  string
	Arity int
	// IntArg renders an arity-1 check's argument as the int parameter b
	// rather than the String a.
	IntArg bool
}

// checkPool is the set of check methods the default-domain generator
// draws from: (name, arity) pairs matching the secmodel table.
var checkPool = []poolCheck{
	{Name: "checkRead", Arity: 1}, {Name: "checkWrite", Arity: 1},
	{Name: "checkConnect", Arity: 2}, {Name: "checkAccept", Arity: 2},
	{Name: "checkLink", Arity: 1}, {Name: "checkExit", Arity: 1, IntArg: true},
	{Name: "checkListen", Arity: 1, IntArg: true}, {Name: "checkDelete", Arity: 1},
	{Name: "checkExec", Arity: 1}, {Name: "checkPropertyAccess", Arity: 1},
	{Name: "checkPermission", Arity: 1}, {Name: "checkMulticast", Arity: 1},
	{Name: "checkSetFactory", Arity: 0}, {Name: "checkCreateClassLoader", Arity: 0},
	{Name: "checkPackageAccess", Arity: 1}, {Name: "checkSecurityAccess", Arity: 1},
}

// cryptoPool is the crypto-domain check pool, matching the secmodel
// crypto table. Length/size checks take the int parameter.
var cryptoPool = []poolCheck{
	{Name: "checkCertChain", Arity: 1},
	{Name: "checkCipherMode", Arity: 1},
	{Name: "checkDigestStrength", Arity: 1},
	{Name: "checkEntropySource", Arity: 0},
	{Name: "checkHostnameVerified", Arity: 2},
	{Name: "checkIvFresh", Arity: 1},
	{Name: "checkIvLength", Arity: 1, IntArg: true},
	{Name: "checkKeyAlgorithm", Arity: 2},
	{Name: "checkKeySize", Arity: 1, IntArg: true},
	{Name: "checkPadding", Arity: 1},
	{Name: "checkSeeded", Arity: 0},
	{Name: "checkTagLength", Arity: 1, IntArg: true},
}

// domainProfile carries the per-domain generation knobs: the guard class
// and field the emitted sources check through, the pool deviations draw
// from, whether the domain has privileged-block semantics (the pPrivInner
// pattern and PrivWrap deviation need them), and the runtime prelude.
type domainProfile struct {
	id         string
	guardClass string
	guardField string
	pool       []poolCheck
	privileged bool
	prelude    func() map[string]string
}

var securityManagerProfile = domainProfile{
	id:         secmodel.DefaultDomainID,
	guardClass: "SecurityManager",
	guardField: "securityManager",
	pool:       checkPool,
	privileged: true,
	prelude:    corpus.RuntimeSources,
}

var cryptoProfile = domainProfile{
	id:         secmodel.CryptoDomainID,
	guardClass: secmodel.CryptoGuardClass,
	guardField: "cryptoGuard",
	pool:       cryptoPool,
	privileged: false,
	prelude:    corpus.CryptoRuntimeSources,
}

// profileOf resolves the generation profile for a Params.Domain value.
// Unknown IDs panic: gen is an internal corpus package, so a domain with
// no generation profile is a programming error, not an input error.
func profileOf(id string) *domainProfile {
	switch id {
	case "", secmodel.DefaultDomainID:
		return &securityManagerProfile
	case secmodel.CryptoDomainID:
		return &cryptoProfile
	}
	panic(fmt.Sprintf("gen: no generation profile for domain %q", id))
}

// patternKind selects an entry-method body template.
type patternKind int

const (
	pPlain     patternKind = iota // no checks, plain native work
	pMustOne                      // one unconditional check
	pMustTwo                      // two unconditional checks
	pMay                          // branch: checkA or checkB (Figure 1 shape)
	pLoop                         // check inside a loop (MAY)
	pGuard                        // parameter-guarded check + null-delegating twin (Figure 4)
	pPrivInner                    // correct: check outside, work inside doPrivileged
)

// methodSpec is one API entry method of the shared skeleton.
type methodSpec struct {
	name     string
	pattern  patternKind
	checks   []int // indexes into checkPool
	depth    int   // helper nesting before the native event
	wrappers int
	// deviations: lib → kind (at most one per method)
	deviation map[string]IssueKind
	devID     string
	// guardInlineLib names the library whose pGuard Default twin inlines
	// the unchecked path instead of delegating with a constant null. The
	// structural divergence is semantically benign, but without ICP the
	// delegating libraries' twins spuriously pick up the guarded check —
	// producing Table 3's "false positives eliminated by ICP".
	guardInlineLib string
	// fn marks a seeded false negative (Section 6.4).
	fn FNKind
}

// FNKind labels a seeded false-negative population.
type FNKind int

// False-negative kinds (Section 6.4).
const (
	FNNone FNKind = iota
	// FNCondDivergence: the same MAY check under different conditions per
	// implementation — flat MAY sets equal, so undetected.
	FNCondDivergence
	// FNAllWrongKind: the same check missing in every implementation.
	FNAllWrongKind
)

func (k FNKind) String() string {
	switch k {
	case FNCondDivergence:
		return "condition-divergence"
	case FNAllWrongKind:
		return "all-wrong"
	}
	return "none"
}

// SeededFN is the ground truth for one seeded false negative: a real
// semantic difference (or shared bug) the oracle must NOT report.
type SeededFN struct {
	ID          string
	Kind        FNKind
	EntryClass  string
	EntryMethod string
	Check       string
}

// MatchesEntry reports whether sig manifests this false negative.
func (fn *SeededFN) MatchesEntry(sig string) bool {
	return strings.Contains(sig, fn.EntryClass+".") &&
		strings.Contains(sig, "."+fn.EntryMethod+"(")
}

type classSpec struct {
	pkg     string
	name    string
	methods []*methodSpec
	// uniqueIn restricts the class to a single library ("" = all).
	uniqueIn string
	// poly marks a polymorphic-noise class (unresolvable virtual sites).
	poly bool
}

// Generate builds the corpus for p. It panics when p.Domain names a
// domain without a generation profile.
func Generate(p Params) *Corpus {
	prof := profileOf(p.Domain)
	if !prof.privileged {
		// No privileged-block semantics: the PrivWrap deviation does not
		// exist in this domain.
		p.PrivWrap = 0
	}
	rng := rand.New(rand.NewSource(p.Seed))
	spec := buildSpec(p, rng, prof)
	c := &Corpus{Params: p, Domain: prof.id, Sources: make(map[string]map[string]string)}
	collectGroundTruth(c, spec, prof)
	for _, lib := range libNames {
		c.Sources[lib] = emitLibrary(spec, lib, prof)
	}
	return c
}

// buildSpec derives the shared skeleton and plants the inconsistencies.
func buildSpec(p Params, rng *rand.Rand, prof *domainProfile) []*classSpec {
	var classes []*classSpec
	var checked []*methodSpec // methods eligible for deviations

	npkg := p.Classes/12 + 1
	for ci := 0; ci < p.Classes; ci++ {
		cs := &classSpec{
			pkg:  fmt.Sprintf("gen.p%02d", ci%npkg),
			name: fmt.Sprintf("Api%03d", ci),
		}
		for mi := 0; mi < p.MethodsPerClass; mi++ {
			ms := &methodSpec{
				name:      fmt.Sprintf("op%d", mi),
				deviation: map[string]IssueKind{},
				depth:     1 + rng.Intn(maxInt(1, p.MaxDepth)),
			}
			if rng.Float64() < p.CheckFraction {
				ms.pattern = patternKind(1 + rng.Intn(6)) // pMustOne..pPrivInner
				if !prof.privileged && ms.pattern == pPrivInner {
					// No privileged blocks in this domain; fold onto a
					// plain MUST check. The rng draw above still happens,
					// so the default-domain stream is unaffected.
					ms.pattern = pMustOne
				}
				switch ms.pattern {
				case pMustTwo, pMay:
					ms.checks = pickChecks(rng, 2, len(prof.pool))
				default:
					ms.checks = pickChecks(rng, 1, len(prof.pool))
				}
				ms.wrappers = rng.Intn(p.WrapperFanout + 1)
				checked = append(checked, ms)
			}
			cs.methods = append(cs.methods, ms)
		}
		classes = append(classes, cs)
	}

	// Polymorphic-noise classes: entries whose virtual call sites have two
	// allocated receiver types and stay unresolved (identical in all
	// implementations, so they add no differences — only resolution misses).
	const polyMethodsPerClass = 8
	for c := 0; c*polyMethodsPerClass < p.PolymorphicNoise; c++ {
		cs := &classSpec{
			pkg:  "gen.poly",
			name: fmt.Sprintf("Poly%02d", c),
			poly: true,
		}
		n := p.PolymorphicNoise - c*polyMethodsPerClass
		if n > polyMethodsPerClass {
			n = polyMethodsPerClass
		}
		for mi := 0; mi < n; mi++ {
			cs.methods = append(cs.methods, &methodSpec{
				name: fmt.Sprintf("poly%d", mi), deviation: map[string]IssueKind{},
			})
		}
		classes = append(classes, cs)
	}

	// Unique-per-library classes: entry points with no counterpart.
	for li, lib := range libNames {
		for u := 0; u < p.UniquePerLib/maxInt(1, len(libNames)); u++ {
			cs := &classSpec{
				pkg:      fmt.Sprintf("gen.unique%d", li),
				name:     fmt.Sprintf("Only%s%02d", strings.Title(lib), u),
				uniqueIn: lib,
			}
			cs.methods = append(cs.methods, &methodSpec{
				name: "solo", pattern: pPlain, depth: 1,
				deviation: map[string]IssueKind{},
			})
			classes = append(classes, cs)
		}
	}

	// Plant deviations on distinct checked methods.
	rng.Shuffle(len(checked), func(i, j int) { checked[i], checked[j] = checked[j], checked[i] })
	idx := 0
	plant := func(kind IssueKind, count int, eligible func(*methodSpec) bool) {
		for n := 0; n < count && idx < len(checked); idx++ {
			ms := checked[idx]
			if !eligible(ms) {
				continue
			}
			lib := libNames[rng.Intn(len(libNames))]
			ms.deviation[lib] = kind
			ms.devID = fmt.Sprintf("%s-%03d", kind, idx)
			n++
		}
	}
	anyChecked := func(ms *methodSpec) bool { return len(ms.checks) > 0 }
	mustPattern := func(ms *methodSpec) bool {
		return ms.pattern == pMustOne || ms.pattern == pMustTwo || ms.pattern == pPrivInner
	}
	plant(DropCheck, p.DropCheck, anyChecked)
	plant(WeakenMust, p.WeakenMust, mustPattern)
	plant(SwapCheck, p.SwapCheck, anyChecked)
	plant(PrivWrap, p.PrivWrap, mustPattern)
	plant(ExtraCheck, p.ExtraCheck, func(ms *methodSpec) bool {
		// A MUST pattern emits extraCheck(checks[0]) unconditionally next
		// to its own checks; when that check is already one of them (a
		// pMustTwo whose second check collides) the policy is unchanged
		// and the seeded deviation could never be reported.
		return anyChecked(ms) && !(mustPattern(ms) && slices.Contains(ms.checks, prof.extraCheck(ms.checks[0])))
	})

	// Constant-guard twins: convert the next ConstGuards checked methods to
	// the Figure 4 pattern (identical across libraries, FP-prone sans ICP).
	guards := 0
	for _, ms := range checked {
		if guards >= p.ConstGuards {
			break
		}
		if len(ms.deviation) == 0 && ms.pattern != pGuard {
			ms.pattern = pGuard
			ms.checks = ms.checks[:1]
			ms.guardInlineLib = libNames[guards%len(libNames)]
			guards++
		}
	}

	// Seeded false negatives (Section 6.4): convert further untouched
	// checked methods.
	fnCond, fnAll := 0, 0
	for _, ms := range checked {
		if fnCond >= p.FNConditionDivergence && fnAll >= p.FNAllWrong {
			break
		}
		if len(ms.deviation) != 0 || ms.pattern == pGuard || ms.fn != FNNone {
			continue
		}
		if fnCond < p.FNConditionDivergence {
			ms.fn = FNCondDivergence
			ms.checks = ms.checks[:1]
			fnCond++
			continue
		}
		ms.fn = FNAllWrongKind
		ms.checks = ms.checks[:1]
		fnAll++
	}
	return classes
}

func pickChecks(rng *rand.Rand, n, poolSize int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		c := rng.Intn(poolSize)
		dup := false
		for _, o := range out {
			if o == c {
				dup = true
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

func collectGroundTruth(c *Corpus, spec []*classSpec, prof *domainProfile) {
	for _, cs := range spec {
		for _, ms := range cs.methods {
			for lib, kind := range ms.deviation {
				c.Issues = append(c.Issues, SeededIssue{
					ID:             ms.devID + "@" + cs.name,
					Kind:           kind,
					Responsible:    lib,
					EntryClass:     cs.name,
					EntryMethod:    ms.name,
					Check:          prof.pool[ms.checks[0]].Name,
					Manifestations: 1 + ms.wrappers,
				})
			}
			if ms.pattern == pGuard {
				// The null-delegating twin entry is the FP site without ICP.
				c.ConstGuardEntries = append(c.ConstGuardEntries,
					fmt.Sprintf("%s.%s.%sDefault(String)", cs.pkg, cs.name, ms.name))
			}
			if ms.fn != FNNone {
				c.FalseNegatives = append(c.FalseNegatives, SeededFN{
					ID:          fmt.Sprintf("fn-%s@%s.%s", ms.fn, cs.name, ms.name),
					Kind:        ms.fn,
					EntryClass:  cs.name,
					EntryMethod: ms.name,
					Check:       prof.pool[ms.checks[0]].Name,
				})
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
