package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cashmere/internal/serve"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// Every iteration — one set-up and one simulation — runs in a fresh child
// process of the benchmark binary, the way a CLI invocation runs one
// simulation per process. A finished simulation leaves its processes'
// goroutines parked and its cluster reachable, so iterations sharing one
// process would start from an ever larger live heap and the collector
// would run ever less often: on raytracer-16, from ~195 GC cycles in the
// first iteration to ~8 by the 18th, with wall time falling by a third.

// iterationEnv carries an iteration request to a child process:
// "<workload> <seed> <traced> <size>".
const iterationEnv = "PERFBENCH_ITERATION"

// record is what one iteration measured; the child prints it as JSON.
type record struct {
	Setup, Wall, CPU float64            // host seconds
	Probe            float64            // host seconds of the probe, run twice after everything else
	PeakRSS          float64            // MiB, the child process's peak resident set
	AllocMiB         float64            // heap allocated by the simulation
	GCCycles         float64            // collections during the simulation
	PDESBlocked      float64            // Σ blocked / Σ (run + blocked) wall over partitions
	Digest           string             // of the trajectory-determined metric dump
	Err              string             // a failed set-up, simulation or output check
	Measured         bool               // the simulation ran to completion
	Makespan         float64            // virtual seconds
	Report           *serve.Report      `json:",omitempty"`
	Counters         map[string]float64 // the program's own per-layer counters
	// Traced iterations only.
	Samples map[string]int64 `json:",omitempty"` // CPU-profile samples per layer
	Spans   []span           `json:",omitempty"`
	Profile []byte           `json:",omitempty"` // the raw pprof CPU profile
}

// iterationMain is the child side: run the requested iteration and print
// its record.
func iterationMain(spec string) int {
	f := strings.Fields(spec)
	if len(f) != 4 {
		fmt.Fprintf(os.Stderr, "perfbench: bad %s %q\n", iterationEnv, spec)
		return 2
	}
	seed, err1 := strconv.ParseInt(f[1], 10, 64)
	traced, err2 := strconv.ParseBool(f[2])
	sz, err3 := strconv.Atoi(f[3])
	setProcs()
	w, err4 := findWorkload(f[0], size(sz))
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: bad %s %q: %v\n", iterationEnv, spec, err)
			return 2
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(iterate(w, seed, traced)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runIteration runs one iteration in a child process and returns its
// record.
func runIteration(w *workload, seed int64, traced bool) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %t %d", iterationEnv, w.name, seed, traced, w.size))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("iteration process: %w", err)
	}
	var rec record
	if err := json.Unmarshal(out, &rec); err != nil {
		return nil, fmt.Errorf("iteration record: %w", err)
	}
	return &rec, nil
}

// iterate builds and runs the workload once, in this process. A failed
// output check leaves the measurements complete; a failed set-up or
// simulation leaves Measured false.
func iterate(w *workload, seed int64, traced bool) *record {
	rec := &record{}
	var sp *spans
	if traced {
		sp = &spans{t0: time.Now()}
	}
	t0 := time.Now()
	s, err := w.build(seed, sp)
	rec.Setup = time.Since(t0).Seconds()
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			rec.Err = err.Error()
			return rec
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t1 := time.Now()
	err = s.run()
	rec.Wall = time.Since(t1).Seconds()
	rec.CPU = (cpuTime() - cpu0).Seconds()
	runtime.ReadMemStats(&ms1)
	if traced {
		pprof.StopCPUProfile()
		rec.Profile = prof.Bytes()
		var perr error
		if rec.Samples, perr = layerSamples(rec.Profile); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Measured = true
	rec.AllocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rec.GCCycles = float64(ms1.NumGC - ms0.NumGC)
	m, err := s.finish()
	if err != nil {
		rec.Err = err.Error()
	}
	sum := sha256.Sum256([]byte(m.Format()))
	rec.Digest = hex.EncodeToString(sum[:8])
	rec.Makespan = s.makespan.Seconds()
	rec.Report = s.report
	host := s.cl.HostMetrics()
	rec.PDESBlocked = blockedShare(host)
	rec.Counters = layerCounters(s, m, host)
	if sp != nil {
		rec.Spans = sp.list
	}
	rec.PeakRSS = peakRSSMB()
	// Last, so that it touches none of the measurements above.
	rec.Probe = (probe() + probe()).Seconds() / 2
	return rec
}

// layerCounters reads the per-layer counters of a finished run through the
// program's public accessors: the metric dump, HostMetrics, the serving
// report and the ocl devices.
func layerCounters(s *sim, m, host *trace.Metrics) map[string]float64 {
	v := map[string]float64{}
	v["simnet.events"] = float64(m.Int("simnet.events"))
	v["simnet.stale_wake_ratio"] = ratio(m.Int("simnet.stale_wakes"), m.Int("simnet.events"))
	v["simnet.pdes_rounds"] = float64(host.Int("pdes.rounds"))
	ok, failed := m.Int("satin.steals_ok"), m.Int("satin.steals_failed")
	v["satin.steal_success_ratio"] = ratio(ok, ok+failed)
	v["satin.jobs_executed"] = float64(m.Int("satin.jobs_executed"))
	v["network.messages_sent"] = float64(m.Int("net.messages_sent"))
	v["network.bytes_sent"] = float64(m.Int("net.bytes_sent"))

	var launches, moved int64
	var kernel, xfer, overlap, maxBusy simnet.Duration
	devices := 0
	for i := 0; i < s.cl.Runtime().Nodes(); i++ {
		for _, d := range s.cl.NodeState(i).Devices {
			launches += d.Launches()
			moved += d.BytesMoved()
			kernel += d.KernelBusy()
			xfer += d.XferBusy()
			overlap += d.OverlapLowerBound()
			maxBusy = max(maxBusy, d.KernelBusy())
			devices++
		}
	}
	v["ocl.launches"] = float64(launches)
	v["ocl.bytes_moved"] = float64(moved)
	v["ocl.kernel_busy_s"] = time.Duration(kernel).Seconds()
	v["ocl.xfer_busy_s"] = time.Duration(xfer).Seconds()
	v["ocl.overlap_s"] = time.Duration(overlap).Seconds()
	if kernel > 0 {
		v["core.device_busy_imbalance"] = float64(maxBusy) * float64(devices) / float64(kernel)
	}
	hits, misses := m.Int("core.cost_cache_hits"), m.Int("core.cost_cache_misses")
	v["core.cost_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["core.cost_evals"] = float64(misses)

	v["svm.faults"] = float64(m.Int("svm.faults"))
	v["svm.pages_migrated"] = float64(m.Int("svm.pages_migrated"))
	v["svm.bytes_moved"] = float64(m.Int("svm.bytes_moved"))
	if r := s.report; r != nil {
		v["serve.batches"] = float64(r.Batches)
		v["serve.coalesced_ratio"] = ratio(r.BatchedReqs, r.Admitted)
		v["serve.shed_throttle"] = float64(r.ShedThrottle)
		v["serve.shed_queue"] = float64(r.ShedQueue)
		v["serve.max_queue_depth"] = float64(r.MaxDepth)
	}
	return v
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// blockedShare is Σ blocked_wall / Σ (run_wall + blocked_wall) over the
// partitions in a HostMetrics dump (0 for the sequential kernel).
func blockedShare(h *trace.Metrics) float64 {
	var run, blocked int64
	for _, n := range h.Names() {
		switch {
		case strings.HasSuffix(n, ".run_wall_ns"):
			run += h.Int(n)
		case strings.HasSuffix(n, ".blocked_wall_ns"):
			blocked += h.Int(n)
		}
	}
	return ratio(blocked, run+blocked)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
