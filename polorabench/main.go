// Command polorabench is the repository's end-to-end benchmark. It drives
// policyoracle only through its public functions (oracle, store, server
// behind a loopback httptest server) in one process and checks every
// output it times.
//
// Usage, from the repository root:
//
//	bash polorabench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash polorabench/run.sh steady --workload <name> [--runs 10] [--seed 1] [--seconds 25] [--trace 0]
//	bash polorabench/run.sh compare <run-a.out> <run-b.out>
//
// A run prints a method line (machine, seed, sample counts), a line of
// the workload's named metrics, and as its last line the result object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. METRICS.md lists the
// metrics and which layer figure should move which end-to-end figure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// method records how and where a result was measured.
type method struct {
	Machine   machine               `json:"machine"`
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Loop      string                `json:"loop"`
	StoreFS   string                `json:"store_fs,omitempty"`
	SetupReps int                   `json:"setup_reps"`
	SetupS    []float64             `json:"setup_s"`
	ElapsedS  float64               `json:"elapsed_s"`
	StealPct  float64               `json:"steal_pct"`
	Streams   map[string]streamInfo `json:"streams"`
	SelfTest  string                `json:"self_test"`
	TraceFile string                `json:"trace_file,omitempty"`
	Untraced  float64               `json:"untraced_ops_per_s,omitempty"`
	Problems  []string              `json:"problems,omitempty"`
	// CorporaSkipped counts generated corpora passed over for the
	// generator's ground-truth flaw (see vacuousExtraCheck).
	CorporaSkipped int64   `json:"corpora_skipped"`
	ReferenceS     float64 `json:"reference_s"`
	// TimedRSSMB is the resident set when the untraced timed phase
	// starts, and SetUpPeakMB the peak before it (set-up and the offline
	// references). PeakScope is what peak_rss_mb covers: the timed phase,
	// or the whole process where the peak could not be reset.
	TimedRSSMB  float64 `json:"timed_start_rss_mb,omitempty"`
	SetUpPeakMB float64 `json:"setup_peak_rss_mb,omitempty"`
	PeakScope   string  `json:"peak_rss_scope,omitempty"`
	// TierHits counts the store reads each tier served in the untraced
	// timed phase, on serve-read.
	TierHits map[string]uint64 `json:"store_tier_hits,omitempty"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"cold-pair":    runColdPair,
	"serve-read":   runServeRead,
	"serve-update": runServeUpdate,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			exitOn(steady(os.Args[2:]))
			return
		case "compare":
			if len(os.Args) != 4 {
				exitOn(errors.New("usage: compare <run-a.out> <run-b.out>"))
			}
			exitOn(compareRuns(os.Args[2], os.Args[3]))
			return
		}
	}
	fs := flag.NewFlagSet("polorabench", flag.ExitOnError)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: cold-pair, serve-read or serve-update")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs and operation sequence derive from")
	fs.IntVar(&cfg.Seconds, "seconds", 25, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	fs.Parse(os.Args[1:])
	cfg.Trace = trace == 1
	run, ok := workloads[cfg.Workload]
	if !ok {
		exitOn(fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, sortedKeys(workloads)))
	}
	if cfg.Seconds < 1 {
		exitOn(errors.New("--seconds must be at least 1"))
	}
	exitOn(execute(cfg, run))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "polorabench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and prints its method, named metrics and
// result lines.
func execute(cfg runConfig, run func(runConfig) (*outcome, error)) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	o, err := run(cfg)
	if err != nil {
		return err
	}
	// An untraced run's peak is its timed phase's; a traced run has no
	// timed phase of its own and reports the process's.
	rss := o.peakMB
	if rss == 0 {
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
	}
	m := method{
		Machine:     thisMachine(),
		Workload:    cfg.Workload,
		Seed:        cfg.Seed,
		Seconds:     cfg.Seconds,
		Trace:       cfg.Trace,
		Loop:        o.loop,
		StoreFS:     o.storeFS,
		SetupReps:   len(o.setupS),
		SetupS:      o.setupS,
		ElapsedS:    o.elapsed.Seconds(),
		StealPct:    o.stealPct,
		TimedRSSMB:  o.rssMB,
		SetUpPeakMB: o.hwmMB,
		PeakScope:   o.peakScope,
		TierHits:    o.tierHits,
		Streams:     map[string]streamInfo{},
		SelfTest:    o.selfTest,
		Untraced:    o.untracedRate,
		Problems:    o.problems(),
		ReferenceS:  o.referenceS,

		CorporaSkipped: corporaSkipped.Load(),
	}
	for name, s := range o.streams {
		m.Streams[name] = s.info()
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, s := range o.streams {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	res.Correct = res.Failed == 0 && o.selfTest == "caught" && len(m.Problems) == 0
	if cfg.Trace {
		m.TraceFile = traceFile(cfg.Workload, cfg.Seed)
		if err := o.tracer.write(m.TraceFile); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: o.layers[d.Name], Unit: d.Unit}
		}
	} else {
		res.Metrics["cpu_ms_per_op"] = metricValue{o.cpuPerOp(), "ms"}
		res.Metrics["ops_per_s"] = metricValue{o.opsPerS(), "1/s"}
		res.Metrics["setup_s"] = metricValue{median(o.setupS), "s"}
		res.Metrics["peak_rss_mb"] = metricValue{rss, "MB"}
	}
	for _, line := range []any{map[string]method{"method": m}, map[string]any{"named": o.named(rss)}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// outDir holds what a run leaves behind: store directories while it
// runs, span dumps after.
func outDir() string { return filepath.Join(".bench_build", "polorabench", "out") }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gcStats is a snapshot of the collector's counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs}
}

func sinceSeconds(t time.Time) float64 { return time.Since(t).Seconds() }
