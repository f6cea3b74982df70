package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// steady runs one workload repeatedly, one process per run with seeds
// seed, seed+1, ..., and prints each metric's median, quartiles and
// spread (interquartile distance over the median): the figures the
// bounds in BENCHMARK.json are set against.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Int64("seed", 1, "seed of the first run")
	seconds := fs.Int("seconds", 25, "timed phase of each run")
	trace := fs.Int("trace", 0, "1 repeats the traced run")
	step := fs.Int64("step", 1, "seed increment between runs (0 repeats one seed, to see the machine's own noise)")
	fs.Parse(args)
	if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	dir := filepath.Join(outDir(), "steady")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < *runs; i++ {
		s := *seed + *step*int64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-trace%d-seed%d-run%d.out", *workload, *trace, s, i))
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		fmt.Fprintf(os.Stderr, "seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		// The named line's metrics too (pairs_per_s, read_p99_ms, ...),
		// so the spread of every end-to-end name shows.
		var named struct{ Named result }
		for _, line := range lines {
			if bytes.HasPrefix(line, []byte(`{"named"`)) {
				if err := json.Unmarshal(line, &named); err != nil {
					return fmt.Errorf("run with seed %d: named line: %w", s, err)
				}
			}
		}
		for name, m := range named.Named.Metrics {
			if _, dup := res.Metrics[name]; !dup {
				res.Metrics[name] = m
			}
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Printf("%-32s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range sortedKeys(values) {
		v := values[name]
		q1, _, q3 := quartiles(v)
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.4f  %s\n", name, q1, median(v), q3, spread(v), units[name])
	}
	return nil
}
