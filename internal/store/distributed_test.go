package store

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"policyoracle/internal/telemetry"
)

// stubBackend is a scriptable Backend for store-level tests.
type stubBackend struct {
	calls atomic.Int64
	blobs map[string][]byte // fp -> blob; absent = miss
	err   error             // returned for every fetch when set
}

func (b *stubBackend) Name() string { return "stub" }

func (b *stubBackend) Fetch(ctx context.Context, fp string) ([]byte, error) {
	b.calls.Add(1)
	if b.err != nil {
		return nil, b.err
	}
	if blob, ok := b.blobs[fp]; ok {
		return blob, nil
	}
	return nil, ErrBackendMiss
}

// TestSaveCampaignAtomic pins SaveCampaign's crash consistency: readers
// racing an overwrite must only ever see a complete old or complete new
// result, never a truncated or interleaved one. The raw os.WriteFile it
// used to do truncates in place, so a concurrent reader could observe
// an empty or partial file.
func TestSaveCampaignAtomic(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	old := bytes.Repeat([]byte{'a'}, 256<<10)
	next := bytes.Repeat([]byte{'b'}, 256<<10)
	p, err := s.SaveCampaign("job-1", old)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var torn atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := os.ReadFile(p)
				if err != nil {
					// The rename window never unlinks the path; any error at
					// all means the write was not atomic.
					torn.Add(1)
					continue
				}
				if !bytes.Equal(data, old) && !bytes.Equal(data, next) {
					torn.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		content := old
		if i%2 == 1 {
			content = next
		}
		if _, err := s.SaveCampaign("job-1", content); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn or failed reads during concurrent SaveCampaign overwrites", n)
	}
}

// TestBackendServesBeforeExtraction pins the tiered read path: a store
// holding neither blob nor bundle for a fingerprint serves it from a
// configured backend, byte-identical, persists it to disk (so the next
// cold read is a disk hit), and counts the backend hit.
func TestBackendServesBeforeExtraction(t *testing.T) {
	origin := openTestStore(t, t.TempDir())
	fp, _, err := origin.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := origin.PoliciesContext(context.Background(), fp)
	if err != nil {
		t.Fatal(err)
	}

	stub := &stubBackend{blobs: map[string][]byte{fp: blob}}
	dir := t.TempDir()
	edge, err := Open(Config{Dir: dir, Parallel: 1, Backends: []Backend{stub}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := edge.PoliciesContext(context.Background(), fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("backend-served blob differs from the origin's bytes")
	}
	if st := edge.Stats(); st.BackendHits != 1 {
		t.Fatalf("BackendHits = %d, want 1", st.BackendHits)
	}
	// The blob was persisted: a fresh store over the same dir serves it
	// from disk without consulting the backend.
	reopened, err := Open(Config{Dir: dir, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.PoliciesContext(context.Background(), fp); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("persisted backend blob not served from disk (err %v)", err)
	}
}

// TestLocalOnlySkipsBackends pins the loop-prevention contract: a read
// under store.LocalOnly never consults backends — it fails with the
// local store's error instead. This is what keeps two replicas with
// disagreeing ring views from chasing each other's blobs forever.
func TestLocalOnlySkipsBackends(t *testing.T) {
	origin := openTestStore(t, t.TempDir())
	fp, _, err := origin.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := origin.PoliciesContext(context.Background(), fp)
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubBackend{blobs: map[string][]byte{fp: blob}}
	edge, err := Open(Config{Dir: t.TempDir(), Parallel: 1, Backends: []Backend{stub}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edge.PoliciesContext(LocalOnly(context.Background()), fp); err == nil {
		t.Fatal("local-only read of an absent fingerprint succeeded")
	}
	if n := stub.calls.Load(); n != 0 {
		t.Fatalf("local-only read consulted the backend %d time(s)", n)
	}
	// The same read without the flag hits the backend.
	if got, err := edge.PoliciesContext(context.Background(), fp); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("normal read after local-only miss failed (err %v)", err)
	}
}

// TestCorruptBackendBlobRejected pins validation parity with the disk
// tier: a backend response that does not re-import is counted corrupt
// and skipped, falling through to the next tier instead of being served.
func TestCorruptBackendBlobRejected(t *testing.T) {
	origin := openTestStore(t, t.TempDir())
	fp, _, err := origin.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubBackend{blobs: map[string][]byte{fp: []byte(`{"torn":`)}}
	edge, err := Open(Config{Dir: t.TempDir(), Parallel: 1, Backends: []Backend{stub}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edge.PoliciesContext(context.Background(), fp); err == nil {
		t.Fatal("corrupt backend blob was served")
	}
	if st := edge.Stats(); st.BackendHits != 0 || st.CorruptBlobs != 1 {
		t.Fatalf("BackendHits = %d CorruptBlobs = %d, want 0 and 1", st.BackendHits, st.CorruptBlobs)
	}
}

// TestPeerBackendWalksPreferenceOrder pins the peer tier's dropout
// behavior with real HTTP: the fingerprint's owner is unreachable, the
// next preferred member answers 404, and the third holds the blob — the
// fetch must degrade member by member and still come back with bytes.
func TestPeerBackendWalksPreferenceOrder(t *testing.T) {
	blob := []byte(`{"domain":"","entries":{}}`)
	var misses, hits atomic.Int64
	missing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		misses.Add(1)
		http.Error(w, `{"code":"unknown_library"}`, http.StatusNotFound)
	}))
	defer missing.Close()
	holder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write(blob)
	}))
	defer holder.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // unreachable member

	self := "self.invalid:1"
	members := []string{missing.URL, holder.URL, dead.URL, self}
	pb := NewPeerBackend(PeerConfig{Members: members, Self: self, Registry: telemetry.New()})
	got, err := pb.Fetch(context.Background(), "po1-0000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("fetched %q, want the holder's blob", got)
	}
	if hits.Load() != 1 {
		t.Fatalf("holder served %d requests, want 1", hits.Load())
	}

	// With only itself and dead members left, the fetch is a clean miss.
	pb.SetMembers([]string{dead.URL, self}, self)
	if _, err := pb.Fetch(context.Background(), "po1-0000"); err != ErrBackendMiss {
		t.Fatalf("fetch over dead members = %v, want ErrBackendMiss", err)
	}
}

// TestConcurrentNamesRebuildWithPuts races the three writers of the
// name index — Put's setLatestFingerprint, readNames' corrupt-index
// rebuild, and backend-path reads — and asserts no latest-fingerprint
// update is lost: after the dust settles every library resolves to the
// fingerprint its Put returned.
func TestConcurrentNamesRebuildWithPuts(t *testing.T) {
	origin := openTestStore(t, t.TempDir())
	fpA, _, err := origin.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := origin.PoliciesContext(context.Background(), fpA)
	if err != nil {
		t.Fatal(err)
	}

	stub := &stubBackend{blobs: map[string][]byte{fpA: blob}}
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Parallel: 1, Backends: []Backend{stub}})
	if err != nil {
		t.Fatal(err)
	}

	const libs = 8
	want := make([]string, libs)
	stop := make(chan struct{})
	var churn, puts sync.WaitGroup
	// Corrupter: repeatedly tears the name index so concurrent readers
	// take the rebuild path while Puts are appending to it.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			os.WriteFile(filepath.Join(dir, "names.json"), []byte(`{"torn":`), 0o644)
			s.Names()
		}
	}()
	// Reader through the peer-fetch path, exercising the backend tier
	// concurrently with the index churn.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.PoliciesContext(context.Background(), fpA)
		}
	}()
	for i := 0; i < libs; i++ {
		puts.Add(1)
		go func(i int) {
			defer puts.Done()
			name := fmt.Sprintf("lib-%d", i)
			sources := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ, "pad.mj": fmt.Sprintf("package p%d;", i)}
			fp, _, err := s.Put(name, sources, OptionsWire{})
			if err != nil {
				t.Error(err)
				return
			}
			want[i] = fp
		}(i)
	}
	puts.Wait()
	close(stop)
	churn.Wait()

	names := s.Names()
	for i := 0; i < libs; i++ {
		name := fmt.Sprintf("lib-%d", i)
		if names[name] != want[i] {
			t.Errorf("names[%s] = %q, want %q (latest-fingerprint update lost)", name, names[name], want[i])
		}
	}
}
