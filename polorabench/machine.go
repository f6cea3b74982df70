package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine identifies where a result was measured. Results from different
// machines are never compared.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func thisMachine() machine {
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// processCPU is the CPU time the process has used, user and system. Time
// the hypervisor takes from the machine's CPUs is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine's aggregate CPU time counters from
// /proc/stat: the ticks the hypervisor took (steal) and all ticks.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) { return procStatusMB("VmHWM") }

// resetPeakRSS sets the process's high-water resident set back to its
// current resident set (Linux 4.0 and later), so that VmHWM read later
// is the peak since the reset.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// procStatusMB reads one kB field of /proc/self/status (VmHWM, VmRSS)
// in MiB.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// savedRun is what compare reads back from a run's standard output: the
// method line (with the machine) and the final result line, whose
// metrics are joined by those of the named line.
type savedRun struct {
	Method method
	Result result
}

func readSavedRun(path string) (*savedRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var run savedRun
	var named result
	var haveMethod, haveResult bool
	for _, line := range bytes.Split(data, []byte("\n")) {
		var probe map[string]json.RawMessage
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if m, ok := probe["method"]; ok {
			haveMethod = json.Unmarshal(m, &run.Method) == nil
		}
		if _, ok := probe["metrics"]; ok {
			haveResult = json.Unmarshal(line, &run.Result) == nil
		}
		if n, ok := probe["named"]; ok {
			json.Unmarshal(n, &named)
		}
	}
	if !haveMethod || !haveResult {
		return nil, fmt.Errorf("%s: not the output of a benchmark run", path)
	}
	for name, m := range named.Metrics {
		if _, dup := run.Result.Metrics[name]; !dup {
			run.Result.Metrics[name] = m
		}
	}
	return &run, nil
}

// compareRuns prints b's metrics as ratios to a's. It refuses runs made
// on different machines or with different methods, whose numbers say
// nothing about the code.
func compareRuns(pathA, pathB string) error {
	a, err := readSavedRun(pathA)
	if err != nil {
		return err
	}
	b, err := readSavedRun(pathB)
	if err != nil {
		return err
	}
	if a.Method.Machine != b.Method.Machine {
		return fmt.Errorf("refusing to compare: measured on different machines:\n  %s: %+v\n  %s: %+v",
			pathA, a.Method.Machine, pathB, b.Method.Machine)
	}
	if a.Method.Workload != b.Method.Workload || a.Method.Trace != b.Method.Trace ||
		a.Method.Seconds != b.Method.Seconds || a.Method.StoreFS != b.Method.StoreFS ||
		a.Method.PeakScope != b.Method.PeakScope {
		return fmt.Errorf("refusing to compare: different methods (workload %s/%s, trace %v/%v, seconds %d/%d, store fs %s/%s, peak rss over %s/%s)",
			a.Method.Workload, b.Method.Workload, a.Method.Trace, b.Method.Trace,
			a.Method.Seconds, b.Method.Seconds, a.Method.StoreFS, b.Method.StoreFS,
			a.Method.PeakScope, b.Method.PeakScope)
	}
	fmt.Printf("%-32s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, name := range sortedKeys(a.Result.Metrics) {
		ma, mb := a.Result.Metrics[name], b.Result.Metrics[name]
		fmt.Printf("%-32s %14.4f %14.4f %8.3f %s\n", name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), ma.Unit)
	}
	return nil
}
