package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cashmere/internal/serve"
)

// minRuns is the fewest measured iterations (after the warm-up) a run
// reports, however long they take.
const minRuns = 3

// Units of the reported metrics.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitMiB   = "MiB"
	unitRPS   = "1/s"
	unitRatio = "ratio"
	unitCount = "count"
	unitNS    = "ns"
)

// endToEnd lists every end-to-end metric with its unit; every workload
// reports all of them. The serving workload's latency and goodput metrics
// apply to it alone, so they are per-layer metrics of the serve layer.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", unitS},
	{"cpu_s", unitS},
	{"setup_s", unitS},
	{"peak_rss_mb", unitMiB},
	{"virtual_makespan_s", unitS},
}

// loop runs iterations of the workload, each in a child process, until
// the budget is spent and at least minRuns have been measured after the
// warm-up (the first iteration: checked, not measured). With traced set,
// every odd iteration records spans and a CPU profile. Every iteration's
// metric-dump digest must equal the first.
func loop(w *workload, seed int64, budget time.Duration, traced bool) (*result, []*record, []*record, error) {
	res := &result{metrics: map[string]metric{}}
	var plain, withTrace []*record
	deadline := time.Now().Add(budget)
	// Stop once the budget is spent and enough runs were measured or, when
	// runs keep failing, once the budget is spent anyway.
	for i := 0; time.Now().Before(deadline) || len(plain)+len(withTrace) < minRuns && res.failed <= minRuns; i++ {
		on := traced && i%2 == 1
		rec, err := runIteration(w, seed, on)
		res.attempted++
		if err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("run %d: %v", i, err))
			continue
		}
		if rec.Err != "" {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("run %d: %s", i, rec.Err))
		}
		if !rec.Measured {
			continue
		}
		if res.digest == "" {
			res.digest = rec.Digest
		} else if rec.Digest != res.digest {
			if rec.Err == "" {
				res.failed++
			}
			res.errs = append(res.errs, fmt.Sprintf("run %d: metric-dump digest %s differs from %s", i, rec.Digest, res.digest))
		}
		if i == 0 {
			continue
		}
		for j := range rec.Spans {
			rec.Spans[j].Iter = i
		}
		if on {
			withTrace = append(withTrace, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	if len(plain) == 0 {
		return res, nil, nil, fmt.Errorf("%s: no successful run (%s)", w.name, strings.Join(res.errs, "; "))
	}
	return res, plain, withTrace, nil
}

// measure is the untraced run: it reports the end-to-end metrics.
func measure(w *workload, seed int64, budget time.Duration) (*result, error) {
	res, runs, _, err := loop(w, seed, budget, false)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{
		"wall_s":      medianOf(runs, func(r *record) float64 { return r.atRefSpeed(r.Wall) }),
		"cpu_s":       medianOf(runs, func(r *record) float64 { return r.atRefSpeed(r.CPU) }),
		"setup_s":     medianOf(runs, func(r *record) float64 { return r.atRefSpeed(r.Setup) }),
		"peak_rss_mb": medianOf(runs, func(r *record) float64 { return r.PeakRSS }),
		// The application's completion time, or the serving run's drain.
		"virtual_makespan_s": runs[0].Makespan,
	}
	for _, d := range endToEnd {
		res.metrics[d.name] = metric{v[d.name], d.unit}
	}
	for _, r := range runs {
		res.walls = append(res.walls, r.Wall)
		res.probes = append(res.probes, r.Probe)
	}
	return res, nil
}

// serveMetrics adds the serving workload's virtual-clock metrics, computed
// from the report r of a measured run, to v. They need simulations beyond
// the measured ones: a recording run for exact latencies and the
// max_rps_at_slo bisection. Each is a check counted in res.
func serveMetrics(w *workload, seed int64, r *serve.Report, res *result, v map[string]float64) {
	v["serve.failed_frac"] = ratio(r.ShedThrottle+r.ShedQueue+r.Errors, r.Offered)
	v["serve.goodput_rps"] = r.GoodputRPS
	failCheck := func(what string, err error) {
		res.attempted++
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: %v", what, err))
	}
	// The report's percentiles come from a log-bucketed histogram and read
	// the same on nearby trajectories; the exact ones come from the
	// per-request spans of a recording run, which must reproduce the
	// measured runs' trajectory.
	rr, lat, err := w.latencies(seed)
	switch {
	case err != nil:
		failCheck("recording run", err)
	case rr.Offered != r.Offered || rr.Completed != r.Completed || rr.SLOOk != r.SLOOk ||
		rr.P50 != r.P50 || rr.P99 != r.P99 || int64(len(lat)) != r.Completed:
		failCheck("recording run", fmt.Errorf("trajectory differs from the measured runs: offered %d/%d completed %d/%d spans %d",
			rr.Offered, r.Offered, rr.Completed, r.Completed, len(lat)))
	default:
		res.attempted++
	}
	v["serve.p50_ms"] = float64(quantile(lat, 0.50)) / 1e6
	v["serve.p99_ms"] = float64(quantile(lat, 0.99)) / 1e6
	rps, err := w.maxRPS(seed)
	if err != nil {
		failCheck("max_rps_at_slo", err)
	}
	v["serve.max_rps_at_slo"] = rps
}

// span is one harness-recorded interval around a public call into the
// program.
type span struct {
	Name    string `json:"name"`
	Iter    int    `json:"iter"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spans records harness spans in memory; a nil *spans records nothing.
type spans struct {
	t0   time.Time
	list []span
}

func (s *spans) timed(name string, f func()) {
	if s == nil {
		f()
		return
	}
	start := time.Since(s.t0)
	f()
	s.list = append(s.list, span{Name: name, StartNs: start.Nanoseconds(), EndNs: time.Since(s.t0).Nanoseconds()})
}

// tracer collects what the traced iterations recorded: harness spans and
// CPU-profile samples attributed to layers.
type tracer struct {
	spans   []span
	samples map[string]int64
	last    []byte // the last raw profile, kept for inspection with go tool pprof
}

// perIter sums the durations of the named spans per iteration.
func (t *tracer) perIter(name string) []float64 {
	by := map[int]float64{}
	for _, sp := range t.spans {
		if sp.Name == name {
			by[sp.Iter] += float64(sp.EndNs-sp.StartNs) / 1e9
		}
	}
	out := make([]float64, 0, len(by))
	for _, v := range by {
		out = append(out, v)
	}
	return out
}

// shares converts sample counts into fractions of all samples.
func (t *tracer) shares() map[string]float64 {
	var tot int64
	for _, n := range t.samples {
		tot += n
	}
	out := map[string]float64{}
	for l, n := range t.samples {
		out[l] = ratio(n, tot)
	}
	return out
}

// shareLayers are the modules whose share of host CPU is a per-layer
// metric; "gc" is the collector's background workers. The traced run
// prints every module's share, these and the rest.
var shareLayers = []string{
	"simnet", "satin", "network", "mcpl", "codegen", "closure", "serve", "gc",
}

// perLayer lists every per-layer metric with its unit.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"simnet.events", unitCount},
		{"simnet.host_ns_per_event", unitNS},
		{"simnet.stale_wake_ratio", unitRatio},
		{"simnet.pdes_blocked_share", unitRatio},
		{"simnet.pdes_rounds", unitCount},
		{"satin.steal_success_ratio", unitRatio},
		{"satin.jobs_executed", unitCount},
		{"network.messages_sent", unitCount},
		{"network.bytes_sent", "B"},
		{"ocl.launches", unitCount},
		{"ocl.bytes_moved", "B"},
		{"ocl.kernel_busy_s", unitS},
		{"ocl.xfer_busy_s", unitS},
		{"ocl.overlap_s", unitS},
		{"core.cost_cache_hit_ratio", unitRatio},
		{"core.cost_evals", unitCount},
		{"core.device_busy_imbalance", unitRatio},
		{"core.new_cluster_s", unitS},
		{"core.register_s", unitS},
		{"svm.faults", unitCount},
		{"svm.pages_migrated", unitCount},
		{"svm.bytes_moved", "B"},
		{"serve.batches", unitCount},
		{"serve.coalesced_ratio", unitRatio},
		{"serve.shed_throttle", unitCount},
		{"serve.shed_queue", unitCount},
		{"serve.max_queue_depth", unitCount},
		{"serve.failed_frac", unitRatio},
		{"serve.p50_ms", unitMS},
		{"serve.p99_ms", unitMS},
		{"serve.goodput_rps", unitRPS},
		{"serve.max_rps_at_slo", unitRPS},
		{"runtime.alloc_mb", unitMiB},
		{"runtime.gc_cycles", unitCount},
		{"trace_overhead", unitRatio},
	}
	for _, l := range shareLayers {
		out = append(out, struct{ name, unit string }{l + ".cpu_share", unitRatio})
	}
	return out
}()

// measureTraced is the traced run. After the warm-up it alternates plain
// and traced iterations, so both see the same host conditions; traced ones
// record harness spans and a CPU profile of the simulation. Host times per
// event and the Go runtime counters come from the plain iterations; the
// trajectory-determined counters are identical in every iteration.
func measureTraced(w *workload, seed int64, budget time.Duration) (*result, *tracer, error) {
	res, plain, traced, err := loop(w, seed, budget, true)
	if err != nil {
		return nil, nil, err
	}
	if len(traced) == 0 {
		return nil, nil, fmt.Errorf("%s: no successful traced run", w.name)
	}
	tr := &tracer{samples: map[string]int64{}}
	for _, r := range traced {
		tr.spans = append(tr.spans, r.Spans...)
		for l, n := range r.Samples {
			tr.samples[l] += n
		}
		tr.last = r.Profile
	}
	v := traced[len(traced)-1].Counters
	wall := medianOf(plain, func(r *record) float64 { return r.atRefSpeed(r.Wall) })
	if ev := v["simnet.events"]; ev > 0 {
		v["simnet.host_ns_per_event"] = wall * 1e9 / ev
	}
	v["simnet.pdes_blocked_share"] = medianOf(plain, func(r *record) float64 { return r.PDESBlocked })
	v["core.new_cluster_s"] = median(tr.perIter("core.NewCluster"))
	v["core.register_s"] = median(tr.perIter("Cluster.Register"))
	v["runtime.alloc_mb"] = medianOf(plain, func(r *record) float64 { return r.AllocMiB })
	v["runtime.gc_cycles"] = medianOf(plain, func(r *record) float64 { return r.GCCycles })
	v["trace_overhead"] = medianOf(traced, func(r *record) float64 { return r.atRefSpeed(r.Wall) })/wall - 1
	if w.maxRPS != nil {
		serveMetrics(w, seed, plain[0].Report, res, v)
	}
	shares := tr.shares()
	for _, l := range shareLayers {
		v[l+".cpu_share"] = shares[l]
	}
	for _, d := range perLayer {
		res.metrics[d.name] = metric{v[d.name], d.unit}
	}
	printShares(shares, tr.samples)
	return res, tr, nil
}

// printShares prints every layer's share of the profiled host CPU, largest
// first, including modules without a per-layer metric of their own.
func printShares(shares map[string]float64, samples map[string]int64) {
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	for _, l := range layers {
		fmt.Printf("layer %-10s %6.2f%% of host CPU (%d samples)\n", l, 100*shares[l], samples[l])
	}
}

// writeTrace writes the harness spans and the last CPU profile under
// .bench_build/trace/ in the working directory, for inspection with
// go tool pprof. Failing to write them does not fail the benchmark.
func writeTrace(name string, seed int64, tr *tracer) {
	dir := filepath.Join(".bench_build", "trace")
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	spans, err := json.MarshalIndent(tr.spans, "", " ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(base+".spans.json", spans, 0o644)
	}
	if err == nil {
		err = os.WriteFile(base+".cpu.pprof", tr.last, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return
	}
	fmt.Printf("spans and CPU profile written to %s.*\n", base)
}
