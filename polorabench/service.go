package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// service is one polorad instance in this process: a store in its own
// directory behind server.New on a loopback httptest server.
type service struct {
	dir    string
	reg    *telemetry.Registry
	st     *store.Store
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(dir string, cacheEntries int) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	reg := telemetry.New()
	st, err := store.Open(store.Config{Dir: dir, CacheEntries: cacheEntries, Registry: reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(st, server.Options{Registry: reg})
	return &service{
		dir:    dir,
		reg:    reg,
		st:     st,
		srv:    srv,
		ts:     httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
	}, nil
}

// close stops the server, waiting for its connections, and deletes the
// store directory.
func (s *service) close() {
	defer runtime.GC()
	s.client.CloseIdleConnections()
	s.ts.Close()
	os.RemoveAll(s.dir)
}

// call sends one request over loopback and returns the status and body.
func (s *service) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serve runs one request through the handler into a recorder, with no
// transport in between.
func (s *service) serve(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// upload registers a library and returns its fingerprint.
func (s *service) upload(name string, sources map[string]string) (string, error) {
	body, err := json.Marshal(server.UploadRequest{Name: name, Sources: sources})
	if err != nil {
		return "", err
	}
	status, data, err := s.call(http.MethodPost, "/v1/libraries", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("upload %s: status %d: %s", name, status, data)
	}
	var resp server.UploadResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return "", fmt.Errorf("upload %s: %w", name, err)
	}
	return resp.Fingerprint, nil
}

// register uploads a library, checks its fingerprint against the one
// computed offline, and has the service extract it, checking the served
// blob against the offline one.
func (s *service) register(name string, sources map[string]string, blob []byte) (string, error) {
	fp, err := s.upload(name, sources)
	if err != nil {
		return "", err
	}
	if want := oracle.Fingerprint(name, sources, wireOptions()); fp != want {
		return "", fmt.Errorf("upload %s: fingerprint %s, computed offline %s", name, fp, want)
	}
	it, err := extractItem(fp, blob)
	if err == nil {
		_, err = read(s, &it)
	}
	if err != nil {
		return "", fmt.Errorf("set-up extract of %s: %w", name, err)
	}
	return fp, nil
}

// bundle is one library the services serve, with the bytes the
// benchmark computed for it offline.
type bundle struct {
	name string
	src  map[string]string
	fp   string                  // fingerprint, computed offline
	pp   *policy.ProgramPolicies // offline extraction under the store's options
	blob []byte                  // pp's ExportJSON: what /v1/extract must return
}

// setUpReps runs setUp reps times, each on a fresh store directory, and
// records each time in o.setupS. Each repetition's service is closed
// before the next one starts, so only one is ever open; the last one is
// kept and its filesystem recorded.
func setUpReps(o *outcome, workload string, reps int, setUp func(dir string) (*service, error)) (*service, error) {
	var svc *service
	for rep := 0; rep < reps; rep++ {
		if svc != nil {
			svc.close()
		}
		start := time.Now()
		s, err := setUp(storeDir(workload, len(o.setupS)))
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, sinceSeconds(start))
		svc = s
	}
	o.storeFS = fsType(svc.dir)
	return svc, nil
}

// setUpAfter closes the service the timed phase ran on and repeats
// set-up reps more times. With half the repetitions before the timed
// phase and half after it, the median setup_s spans the whole run, and
// a few seconds in which the machine or its disk is slow move it little.
func setUpAfter(o *outcome, workload string, svc *service, reps int, setUp func(dir string) (*service, error)) error {
	svc.close()
	last, err := setUpReps(o, workload, reps, setUp)
	if err == nil {
		last.close()
	}
	return err
}

// wireOptions are the options every bundle is uploaded with: the zero
// wire options, which resolve to oracle.DefaultOptions.
func wireOptions() oracle.Options {
	opts, err := store.OptionsWire{}.ToOracle()
	if err != nil {
		panic(err) // the zero wire options always resolve
	}
	return opts
}

// storeOptions are the options the store extracts such a bundle under:
// display data off, workers = GOMAXPROCS.
func storeOptions() oracle.Options {
	opts := wireOptions()
	opts.CollectPaths, opts.CollectGuards = false, false
	opts.Parallel = 0
	return opts
}

// reference extracts sources offline and returns the policies and their
// exported blob. Only the policies are kept, not the program they came
// from, so the references add little to the process's peak memory.
func reference(name string, sources map[string]string, opts oracle.Options) (*policy.ProgramPolicies, []byte, error) {
	lib, err := oracle.LoadLibrary(name, sources)
	if err != nil {
		return nil, nil, err
	}
	lib.Extract(opts)
	blob, err := lib.Policies.ExportJSON()
	return lib.Policies, blob, err
}

// referenceDiff is the offline report of two policy sets and its
// /v1/diff response bytes.
func referenceDiff(a, b *policy.ProgramPolicies) (*diff.Report, []byte, error) {
	rep, err := oracle.Diff(&oracle.Library{Name: a.Library, Policies: a}, &oracle.Library{Name: b.Library, Policies: b})
	if err != nil {
		return nil, nil, err
	}
	wire, err := rep.EncodeJSON()
	return rep, wire, err
}

// corpusSizes spreads n class counts evenly over [lo, hi], one at the
// middle of each equal-width stratum. Sizes are continuous, so
// percentiles do not jump between size modes, and they do not depend on
// the seed: the seed varies what the corpora contain, not how large they
// are, so every run covers the range the same way.
func corpusSizes(n, lo, hi int) []int {
	sizes := make([]int, n)
	w := float64(hi-lo) / float64(n)
	for i := range sizes {
		sizes[i] = lo + int(w*(float64(i)+0.5))
	}
	return sizes
}

// genCorpus generates one three-library corpus of the given size. It
// passes over a corpus with a known ground-truth flaw (see
// vacuousExtraCheck) and draws the next seed of a fixed sequence
// instead, counting each one passed over in corporaSkipped.
func genCorpus(seed int64, classes int) *gen.Corpus {
	p := gen.Small()
	p.Classes = classes
	for k := int64(0); ; k++ {
		p.Seed = seed + k*0x9e3779b97f4a7c
		c := gen.Generate(p)
		if !vacuousExtraCheck(c) {
			return c
		}
		corporaSkipped.Add(1)
	}
}

// corporaSkipped counts the generated corpora genCorpus passed over.
var corporaSkipped atomic.Int64

// vacuousExtraCheck reports whether c carries a known flaw of the
// generator's ground truth. An ExtraCheck deviation planted on a
// two-check method adds the check three places after its first one in
// the check pool without looking at the method's second check; when
// the two are the same, the deviant method makes that check twice in a
// row, its policy is its siblings', and no difference exists, yet the
// corpus still lists one, so VerifyReport calls the oracle's correct
// report a miss. That is the only way gen emits three check calls in a
// row whose last two are the same, which is what is looked for here.
func vacuousExtraCheck(c *gen.Corpus) bool {
	isCheck := func(line string) bool { return strings.Contains(line, ".check") }
	for _, files := range c.Sources {
		for _, src := range files {
			var prev [2]string
			for _, line := range strings.Split(src, "\n") {
				line = strings.TrimSpace(line)
				if line == prev[1] && isCheck(line) && isCheck(prev[0]) {
					return true
				}
				prev[0], prev[1] = prev[1], line
			}
		}
	}
	return false
}

// libNames are the implementations every generated corpus holds, and
// pairs the diffs between them, in gen's order.
var libNames = []string{"jdk", "harmony", "classpath"}

func corpusPairs() [][2]string { return (&gen.Corpus{}).Pairs() }

// scrape sums the registry's exposition by metric family name (labels
// folded together).
func scrape(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(reg.Text(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// storeDir names a store directory of this process.
func storeDir(workload string, rep int) string {
	return filepath.Join(outDir(), fmt.Sprintf("store-%s-%d-%d", workload, os.Getpid(), rep))
}

// selfTest feeds the read check one deliberately wrong expected blob: a
// read of fp checked against its offline blob with one byte flipped must
// fail, and the same read checked against the blob itself must pass.
func (s *service) selfTest(fp string, blob []byte) string {
	wrong := append([]byte(nil), blob...)
	wrong[len(wrong)/2] ^= 1
	for _, c := range []struct {
		want []byte
		pass bool
	}{{blob, true}, {wrong, false}} {
		it, err := extractItem(fp, c.want)
		if err != nil {
			return err.Error()
		}
		if _, err := read(s, &it); (err == nil) != c.pass {
			if c.pass {
				return "the offline blob itself failed: " + err.Error()
			}
			return "missed: a read checked against a corrupted blob passed"
		}
	}
	return "caught"
}
