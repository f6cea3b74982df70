package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
)

// ErrInvalid marks request-validation failures (empty name or sources,
// unknown options, a bundle that does not load) so the server can map
// them to 400s without string matching.
var ErrInvalid = errors.New("invalid request")

// UpdateResult describes one delta-aware library update.
type UpdateResult struct {
	Fingerprint string `json:"fingerprint"`
	// Created is false when the exact bundle content was already stored.
	Created bool `json:"created"`
	// Incremental is true when the library's previous extraction seeded
	// this one; Entries/Reused/Reanalyzed count its entry points either
	// way (an already-extracted bundle reports all entries as reused).
	Incremental bool `json:"incremental"`
	Entries     int  `json:"entries"`
	Reused      int  `json:"reused"`
	Reanalyzed  int  `json:"reanalyzed"`
}

// Update is the delta-aware counterpart of Put + PoliciesContext: it
// fingerprints and persists the new bundle, then extracts its policies
// eagerly, seeding the extraction from the library's previous
// fingerprint when its policy blob and incremental sidecar are available
// — re-analyzing only entry points whose dependency set changed. The
// extraction runs as the fingerprint's single-flight leader, so reads of
// the new fingerprint join it. The persisted blob is byte-identical to
// what a cold PoliciesContext extraction of the same fingerprint would
// produce.
func (s *Store) Update(ctx context.Context, name string, sources map[string]string, w OptionsWire) (*UpdateResult, error) {
	// Serialize updates per library name: two concurrent PUTs of one name
	// must not both seed from the same "previous" revision and then race
	// their index writes. Under the lock each update reads the latest
	// index state, extracts, and advances the index before the next one
	// starts, so the index always ends at the last writer's fingerprint.
	s.nameLock(name).Lock()
	defer s.nameLock(name).Unlock()

	prevFP, _ := s.latestFingerprint(name) // before the index moves
	j, err := prepare(name, sources, w)
	if err != nil {
		return nil, err
	}
	fp := j.bundle.Fingerprint
	created, err := s.writeBundle(j.bundle)
	if err != nil {
		return nil, err
	}
	if prevFP != fp {
		j.prevFP = prevFP
	}
	// Join (or lead) fp's flight before the name index names fp, so a
	// read the index move prompts, such as a reconcile tick, joins this
	// extraction instead of starting a second one.
	blob, c := s.join(ctx, fp, j)
	if err := s.setLatestFingerprint(name, fp); err != nil {
		if c != nil {
			s.leave(fp, c, err)
		}
		return nil, err
	}
	var st *oracle.IncrementalStats
	if c != nil {
		if blob, err = s.wait(ctx, fp, c); err != nil {
			return nil, err
		}
		st = c.stats
	}
	res := &UpdateResult{Fingerprint: fp, Created: created}
	if st == nil {
		// The blob was already stored: nothing to re-analyze.
		pp, err := policy.ImportJSON(blob)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		res.Entries = len(pp.Entries)
		res.Reused = res.Entries
		return res, nil
	}
	res.Incremental = !st.Full
	res.Entries, res.Reused, res.Reanalyzed = st.Entries, st.Reused, st.Reanalyzed
	return res, nil
}

// nameLock returns the mutex serializing updates of one library name.
// Locks are never deleted; the map is bounded by the number of distinct
// library names the process has updated.
func (s *Store) nameLock(name string) *sync.Mutex {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	mu, ok := s.updateLocks[name]
	if !ok {
		mu = &sync.Mutex{}
		s.updateLocks[name] = mu
	}
	return mu
}

// loadIncrementalSeed reconstructs the previous extraction (policies +
// hashes + dependency sets) from a fingerprint's persisted blob and
// sidecar. Nil when either is missing or corrupt — the update then falls
// back to a full extraction.
func (s *Store) loadIncrementalSeed(prevFP string) *oracle.Library {
	side, err := os.ReadFile(s.depsPath(prevFP))
	if err != nil {
		return nil
	}
	snap, err := oracle.DecodeSnapshot(side)
	if err != nil {
		s.log.Warn("store: corrupt incremental sidecar", "fingerprint", prevFP, "err", err)
		return nil
	}
	blob, err := os.ReadFile(s.policyPath(prevFP))
	if err != nil {
		return nil
	}
	snap.Policies = blob
	lib, err := snap.ToLibrary()
	if err != nil {
		s.log.Warn("store: incremental seed unusable", "fingerprint", prevFP, "err", err)
		return nil
	}
	return lib
}
