package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/bench"
	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/serve"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
	"cashmere/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	size  size
	nodes int
	// build is the set-up: cluster construction, kernel registration and
	// input generation. The returned sim's run is the measured simulation.
	build func(seed int64, sp *spans) (*sim, error)
	// The serving workload's virtual metrics need simulations beyond the
	// timed runs (nil on batch workloads). latencies repeats the run with
	// the trace recorder on and returns its report and the latency of every
	// completed request; maxRPS bisects the highest total offered rate that
	// meets the SLO.
	latencies func(seed int64) (*serve.Report, []int64, error)
	maxRPS    func(seed int64) (float64, error)
}

// sim is one constructed simulation, ready to run once.
type sim struct {
	cl  *core.Cluster
	run func() error // the simulation itself: apps.Run* or serve.Run
	// finish flushes outputs, collects the metric dump and checks outputs;
	// a returned error fails the run.
	finish   func() (*trace.Metrics, error)
	makespan simnet.Time   // virtual makespan, set by run
	report   *serve.Report // serving report, set by run
}

// partitionsFor is the partition count the CLIs resolve by default
// (-partitions 0): the program's own heuristic at this process's GOMAXPROCS.
func partitionsFor(nodes int) int {
	return core.AutoPartitions(nodes, runtime.GOMAXPROCS(0))
}

// size selects the problem scale: the full benchmark or a reduced smoke run.
type size int

const (
	full size = iota
	smoke
)

// workloads returns the benchmark's workloads at the given scale, in the
// order BENCHMARK.json lists them.
func workloads(sz size) []*workload {
	ws := []*workload{raytracer16(sz), kmeansHetero(sz), serve16(sz), kmeansVerifySVM(sz)}
	for _, w := range ws {
		w.size = sz
	}
	return ws
}

func findWorkload(name string, sz size) (*workload, error) {
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// batchApp describes one batch application run on a cluster.
type batchApp struct {
	kernels func() (*codegen.KernelSet, error)
	run     func(cl *core.Cluster) (apps.Result, error)
	// prepare, when set, generates the run's inputs (part of the set-up)
	// and returns the workload's own check of the run's outputs.
	prepare func(cl *core.Cluster, seed int64, sp *spans) (check func() error)
}

func batchWorkload(name string, cfg core.Config, app batchApp) *workload {
	w := &workload{name: name, nodes: len(cfg.Nodes)}
	cfg.Partitions = partitionsFor(len(cfg.Nodes))
	w.build = func(seed int64, sp *spans) (*sim, error) {
		cfg := cfg
		cfg.Seed = seed
		var cl *core.Cluster
		var err error
		sp.timed("core.NewCluster", func() { cl, err = core.NewCluster(cfg) })
		if err != nil {
			return nil, err
		}
		ks, err := app.kernels()
		if err != nil {
			return nil, err
		}
		sp.timed("Cluster.Register", func() { err = cl.Register(ks) })
		if err != nil {
			return nil, err
		}
		var check func() error
		if app.prepare != nil {
			check = app.prepare(cl, seed, sp)
		}
		s := &sim{cl: cl}
		s.run = func() error {
			var res apps.Result
			sp.timed("apps.Run", func() { res, err = app.run(cl) })
			s.makespan = res.Elapsed
			return err
		}
		s.finish = func() (*trace.Metrics, error) {
			var m *trace.Metrics
			sp.timed("Cluster.CollectMetrics", func() { m = cl.CollectMetrics() })
			if d := m.Int("net.messages_dropped"); d != 0 {
				return m, fmt.Errorf("net.messages_dropped = %d", d)
			}
			if f := m.Int("core.cpu_fallbacks"); f != 0 {
				return m, fmt.Errorf("core.cpu_fallbacks = %d", f)
			}
			if check != nil {
				return m, check()
			}
			return m, nil
		}
		return s, nil
	}
	return w
}

func optimized(k func(apps.Variant) (*codegen.KernelSet, error)) func() (*codegen.KernelSet, error) {
	return func() (*codegen.KernelSet, error) { return k(apps.CashmereOptimized) }
}

// raytracer16 is the Fig. 7/8 raytracer: optimized kernels, 16 GTX480
// nodes, the paper problem. Every leaf launch has its own y0, so the
// per-node cost cache never hits and every launch runs the MCL analysis.
func raytracer16(sz size) *workload {
	nodes, prob := 16, apps.PaperRaytracer()
	if sz == smoke {
		nodes = 2
		prob.W, prob.H, prob.Samples = 64, 64, 4
	}
	return batchWorkload("raytracer-16", core.DefaultConfig(nodes, "gtx480"), batchApp{
		kernels: optimized(apps.RaytracerKernels),
		run: func(cl *core.Cluster) (apps.Result, error) {
			return apps.RunRaytracer(cl, prob, apps.CashmereOptimized)
		},
	})
}

// kmeansHetero is Table III's k-means on its heterogeneous 23-device
// cluster (bench.Table3Configs). Almost every launch hits the cost cache,
// so the MCL front end is bypassed and the event loop dominates.
func kmeansHetero(sz size) *workload {
	nodes, prob := bench.Table3Configs()["kmeans"].Nodes, apps.PaperKMeans()
	if sz == smoke {
		nodes = nodes[len(nodes)-3:] // k20, k20, k20+xeon_phi
		prob = apps.KMeansProblem{N: 1 << 16, K: 256, D: 4, Iters: 2, LeafPoints: 4096, NodeLeaves: 2}
	}
	cfg := core.DefaultConfig(len(nodes), "gtx480")
	cfg.Nodes = nodes
	return batchWorkload("kmeans-hetero", cfg, batchApp{
		kernels: optimized(apps.KMeansKernels),
		run: func(cl *core.Cluster) (apps.Result, error) {
			return apps.RunKMeans(cl, prob, apps.CashmereOptimized)
		},
		prepare: func(cl *core.Cluster, _ int64, _ *spans) func() error {
			// Every leaf is charged its analytic flops; a lost or doubled
			// leaf shows here.
			return func() error {
				if got, want := cl.FlopsCharged(), prob.Flops(); got != want {
					return fmt.Errorf("core.flops_charged %.6g, analytic %.6g", got, want)
				}
				return nil
			}
		},
	})
}

// kmeansVerifySVM is verification-scale k-means on real data over shared
// virtual memory (write-invalidate) on four heterogeneous nodes: the only
// workload that executes kernels (closure engine) and moves data by demand
// paging.
func kmeansVerifySVM(sz size) *workload {
	prob := apps.KMeansProblem{N: 16384, K: 256, D: 4, Iters: 2, LeafPoints: 512, NodeLeaves: 8}
	if sz == smoke {
		prob.N, prob.Iters = 4096, 1
	}
	cfg := core.DefaultConfig(4, "gtx480")
	cfg.Nodes = []core.NodeSpec{
		{Devices: []string{"gtx480"}},
		{Devices: []string{"k20", "xeon_phi"}},
		{Devices: []string{"hd7970"}},
		{Devices: []string{"c2050"}},
	}
	cfg.Verify = true
	cfg.Transport = core.TransportSVM
	cfg.SVM.Protocol = svm.WriteInvalidate
	return batchWorkload("kmeans-verify-svm", cfg, batchApp{
		kernels: optimized(apps.KMeansKernels),
		run: func(cl *core.Cluster) (apps.Result, error) {
			return apps.RunKMeans(cl, prob, apps.CashmereOptimized)
		},
		prepare: func(cl *core.Cluster, seed int64, sp *spans) func() error {
			d := apps.AttachKMeansData(cl, prob, seed)
			return func() error {
				sp.timed("apps.FlushKMeans", func() { apps.FlushKMeans(cl) })
				want := apps.KMeansReferenceAssign(d)
				for i, a := range d.Assign.I {
					if a != want[i] {
						return fmt.Errorf("assign[%d] = %d, reference %d", i, a, want[i])
					}
				}
				return nil
			}
		},
	})
}

// Serving workload settings. The offered rate is absolute and fixed here,
// never derived from serve.Workload.CapacityRPS, so a change to the
// capacity model cannot move the load the benchmark offers.
const (
	serveRateRPS = 6000
	serveHorizon = 6 * time.Second
	// Each max_rps_at_slo probe runs sloHorizon of virtual time; sloSteps
	// halvings of [0, 2*serveRateRPS] resolve the rate to ~47 req/s.
	sloHorizon = 3 * time.Second
	sloSteps   = 8
	sloTarget  = 0.95
)

// serve16 is the standard three-tenant open loop (Poisson interactive,
// MMPP analytics, diurnal batch) at an absolute offered rate on 16 GTX480
// nodes, dispatching remotely from node 0.
func serve16(sz size) *workload {
	nodes, rate, horizon, sloH := 16, float64(serveRateRPS), serveHorizon, sloHorizon
	if sz == smoke {
		nodes, rate, horizon, sloH = 2, 8000, 200*time.Millisecond, 50*time.Millisecond
	}
	w := &workload{name: "serve-16", nodes: nodes}
	// setup builds the cluster and serving config for one run offering
	// arrivals at rps in total. The service itself — token buckets, queue
	// limits, batching — is always the one configured for rate, so only
	// the offered load varies between runs.
	setup := func(seed int64, rps float64, horizon time.Duration, record bool, sp *spans) (*core.Cluster, serve.Config, error) {
		sw, err := serve.StandardWorkload(rate)
		if err != nil {
			return nil, serve.Config{}, err
		}
		for i := range sw.Tenants {
			sw.Tenants[i].Arrival.RatePerSec *= rps / rate
		}
		if err := sw.EstimateCosts("gtx480"); err != nil {
			return nil, serve.Config{}, err
		}
		cfg := core.DefaultConfig(nodes, "gtx480")
		cfg.Seed = seed
		cfg.Partitions = partitionsFor(nodes)
		if record {
			cfg.Record, cfg.Partitions = true, 1 // the recorder is sequential-only
		}
		var cl *core.Cluster
		sp.timed("core.NewCluster", func() { cl, err = core.NewCluster(cfg) })
		if err != nil {
			return nil, serve.Config{}, err
		}
		for _, ks := range sw.KernelSets {
			sp.timed("Cluster.Register", func() { err = cl.Register(ks) })
			if err != nil {
				return nil, serve.Config{}, err
			}
		}
		scfg := serve.DefaultConfig(sw)
		scfg.Horizon = simnet.Duration(horizon)
		return cl, scfg, nil
	}
	w.build = func(seed int64, sp *spans) (*sim, error) {
		cl, scfg, err := setup(seed, rate, horizon, false, sp)
		if err != nil {
			return nil, err
		}
		s := &sim{cl: cl}
		s.run = func() error {
			sp.timed("serve.Run", func() { s.report, err = serve.Run(cl, scfg) })
			if err == nil {
				s.makespan = s.report.Elapsed
			}
			return err
		}
		s.finish = func() (*trace.Metrics, error) {
			var m *trace.Metrics
			sp.timed("Cluster.CollectMetrics", func() { m = cl.CollectMetrics() })
			r := s.report
			r.FillMetrics(m)
			if r.Offered != r.Admitted+r.ShedThrottle+r.ShedQueue {
				return m, fmt.Errorf("offered %d != admitted %d + shed %d+%d",
					r.Offered, r.Admitted, r.ShedThrottle, r.ShedQueue)
			}
			if r.Admitted != r.Completed+r.Errors {
				return m, fmt.Errorf("admitted %d != completed %d + errors %d",
					r.Admitted, r.Completed, r.Errors)
			}
			return m, nil
		}
		return s, nil
	}
	w.latencies = func(seed int64) (*serve.Report, []int64, error) {
		cl, scfg, err := setup(seed, rate, horizon, true, nil)
		if err != nil {
			return nil, nil, err
		}
		r, err := serve.Run(cl, scfg)
		if err != nil {
			return nil, nil, err
		}
		var lat []int64
		for _, s := range cl.Recorder().Spans() {
			if s.Kind == serve.KindServe {
				lat = append(lat, int64(s.End-s.Start))
			}
		}
		return r, lat, nil
	}
	w.maxRPS = func(seed int64) (float64, error) {
		return maxRPSAtSLO(func(rps float64) (float64, error) {
			cl, scfg, err := setup(seed, rps, sloH, false, nil)
			if err != nil {
				return 0, err
			}
			r, err := serve.Run(cl, scfg)
			if err != nil {
				return 0, err
			}
			return sloAttainment(r), nil
		}, 0, 2*rate, sloTarget, sloSteps)
	}
	return w
}

// sloAttainment is the fraction of offered requests that completed within
// the SLO. Shed requests (and errors) count as misses; a retried request is
// offered twice, so its first, shed offer is a miss.
func sloAttainment(r *serve.Report) float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.SLOOk) / float64(r.Offered)
}

// maxRPSAtSLO bisects the highest total offered rate in [lo, hi] whose SLO
// attainment is at least target, assuming attainment falls as the rate
// rises. Each probe is a deterministic simulation, so the result is a pure
// function of the seed.
func maxRPSAtSLO(attain func(rps float64) (float64, error), lo, hi, target float64, steps int) (float64, error) {
	for i := 0; i < steps; i++ {
		mid := (lo + hi) / 2
		a, err := attain(mid)
		if err != nil {
			return 0, err
		}
		if a >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}
