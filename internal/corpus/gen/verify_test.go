package gen

import (
	"math/rand"
	"slices"
	"testing"

	"policyoracle/internal/oracle"
)

// TestVerifyReportUnmutated pins the verification hook itself: on the
// unmutated corpus the oracle's report must match the seeded ground
// truth exactly, so VerifyReport returns no problems for any pair. The
// metamorphic fuzzer builds on this hook to assert that seeded
// deviations also survive mutation.
func TestVerifyReportUnmutated(t *testing.T) {
	c, libs := loadCorpus(t, Small())
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	for _, pair := range c.Pairs() {
		rep := mustDiff(t, libs[pair[0]], libs[pair[1]])
		for _, problem := range c.VerifyReport(pair, rep) {
			t.Error(problem)
		}
	}
}

// TestVerifyReportFlagsTampering makes sure the hook actually fails when
// the report disagrees with the ground truth — a verifier that accepts
// everything would make the survival test vacuous.
func TestVerifyReportFlagsTampering(t *testing.T) {
	c, libs := loadCorpus(t, Small())
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	pair := c.Pairs()[0]
	rep := mustDiff(t, libs[pair[0]], libs[pair[1]])
	if len(rep.Groups) == 0 {
		t.Fatal("no difference groups to tamper with")
	}
	// Dropping a real difference must be reported as an undetected issue.
	tampered := *rep
	tampered.Groups = rep.Groups[1:]
	if len(c.VerifyReport(pair, &tampered)) == 0 {
		t.Error("VerifyReport accepted a report with a seeded issue removed")
	}
}

// TestExtraCheckNeverVacuous pins the fix for a ground-truth flaw: an
// ExtraCheck planted on a pMustTwo method whose second check equals the
// emitted extra check changed no policy, yet the corpus listed it as a
// seeded deviation, so VerifyReport called a correct report a miss.
// Seed 7074 at 81 classes was one such corpus; it must now verify
// clean, and a structural sweep over many seeds must find no ExtraCheck
// deviant on a MUST pattern whose extra check is already in its check
// set. (On pMay and pLoop the extra check is unconditional where the
// method's own checks are not, so even a colliding one moves MUST.)
func TestExtraCheckNeverVacuous(t *testing.T) {
	p := Small()
	p.Seed, p.Classes = 7074, 81
	c, libs := loadCorpus(t, p)
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	for _, pair := range c.Pairs() {
		for _, problem := range c.VerifyReport(pair, mustDiff(t, libs[pair[0]], libs[pair[1]])) {
			t.Errorf("seed 7074: %v: %s", pair, problem)
		}
	}

	prof := profileOf(p.Domain)
	for seed := int64(0); seed < 1000; seed++ {
		p.Seed = seed
		for _, cs := range buildSpec(p, rand.New(rand.NewSource(seed)), prof) {
			for _, ms := range cs.methods {
				if !hasDeviation(ms, ExtraCheck) || (ms.pattern != pMustOne && ms.pattern != pMustTwo && ms.pattern != pPrivInner) {
					continue
				}
				if extra := prof.extraCheck(ms.checks[0]); slices.Contains(ms.checks, extra) {
					t.Errorf("seed %d: %s.%s: extra check %d already in %v",
						seed, cs.name, ms.name, extra, ms.checks)
				}
			}
		}
	}
}

func hasDeviation(ms *methodSpec, kind IssueKind) bool {
	for _, k := range ms.deviation {
		if k == kind {
			return true
		}
	}
	return false
}
