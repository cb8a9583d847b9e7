// Command perfbench is the repository's benchmark. It runs one workload of
// the simulator for a fixed host-time budget, checks every run's outputs,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a profiled run (--trace 1). The last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload kmeans-hetero --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads and the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if spec := os.Getenv(iterationEnv); spec != "" {
		os.Exit(iterationMain(spec))
	}
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 25, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 runs the traced (profiled) run and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	setProcs()
	w, err := findWorkload(*name, full)
	if err != nil {
		fail(err)
	}
	fmt.Println(provenance(w))

	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		var tr *tracer
		if res, tr, err = measureTraced(w, *seed, budget); err == nil {
			writeTrace(w.name, *seed, tr)
		}
	} else {
		res, err = measure(w, *seed, budget)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("digest %s (%d runs, %d failed)\n", res.digest, res.attempted, res.failed)
	if len(res.walls) > 0 {
		fmt.Printf("raw wall_s per iteration: %.4g\n", res.walls)
		fmt.Printf("probe_s per iteration: %.4g\n", res.probes)
	}
	for _, e := range res.errs {
		fmt.Println("check failed:", e)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && len(res.errs) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setProcs runs the benchmark's processes on one CPU. On a small shared
// host a simulation on two CPUs is slowed by whatever else runs there: with
// two partitions each waits for the other, so time stolen from either CPU
// stalls both. On a 2-CPU host, raytracer-16 wall time at GOMAXPROCS 2
// ranged 2.0-3.8 s over runs at moments of heavy host load, against
// 2.0-2.7 s at GOMAXPROCS 1 in the same minutes. The partition count still
// comes from the program's own heuristic at this GOMAXPROCS.
func setProcs() {
	runtime.GOMAXPROCS(1)
}

// provenance describes the host and the configuration the run resolved to:
// results recorded on different hosts or toolchains are not comparable.
func provenance(w *workload) string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s cpu=%q workload=%s nodes=%d partitions=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(),
		w.name, w.nodes, partitionsFor(w.nodes))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a whole benchmark invocation reports.
type result struct {
	attempted, failed int
	errs              []string
	digest            string
	metrics           map[string]metric
	// Raw host seconds of each measured iteration: the simulation's wall
	// time and the probe's.
	walls, probes []float64
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(recs []*record, f func(*record) float64) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = f(r)
	}
	return median(xs)
}
