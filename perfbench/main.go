// Command perfbench is the repository benchmark. It runs one named
// workload under a seed, prints every end-to-end metric with its unit,
// checks the program's outputs, and, with -trace 1, runs a separate traced
// run that prints per-layer costs instead:
//
//	perfbench --workload sim-control --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero only
// for a hard failure (see check.go) or a benchmark error. All measurement
// happens from outside the program: the benchmark builds the nodes itself
// and times calls into each module's public seams.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one invocation's output.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string // human-readable lines printed before the JSON
	hard              []string // hard failures; non-empty means incorrect
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: sim-control, sim-data, sim-recovery or live-udp")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	switch *wl {
	case "sim-control", "sim-data", "sim-recovery":
		sh := map[string]simShape{"sim-control": simControl, "sim-data": simData, "sim-recovery": simRecovery}[*wl]
		if *trace == 1 {
			res, err = traceSim(*wl, sh, *seed)
		} else {
			res, err = benchSim(sh, *seed, budget)
		}
	case "live-udp":
		if *trace == 1 {
			res, err = traceLive(*seed, budget)
		} else {
			res, err = benchLive(*seed, budget)
		}
	default:
		err = fmt.Errorf("unknown workload %q (want sim-control, sim-data, sim-recovery or live-udp)", *wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res.note("machine: nproc=%d GOMAXPROCS=%d %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, h := range res.hard {
		fmt.Println("# HARD FAILURE:", h)
	}
	out := map[string]any{
		"correct":   len(res.hard) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
	}
	ms := map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("# %-40s %.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if len(res.hard) > 0 {
		os.Exit(1)
	}
}
