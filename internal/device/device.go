// Package device holds the catalog of many-core devices used in the
// Cashmere paper's evaluation (DAS-4, Sec. IV) and the roofline-style cost
// model that replaces real hardware in this reproduction.
//
// A kernel's modeled execution time on a device is
//
//	max(flops / (peak * computeEff), bytes / (bandwidth * bandwidthEff)) + overhead
//
// where the efficiency factors are derived from the same static analyses the
// MCL feedback engine performs (memory coalescing, local-memory reuse, SIMD
// divergence, occupancy). Optimizing a kernel in MCPL therefore genuinely
// changes its modeled performance, reproducing the optimized-vs-unoptimized
// gaps of Fig. 6.
package device

import (
	"fmt"
	"sort"
	"time"
)

// Spec describes one device model.
type Spec struct {
	Name   string // catalog key, e.g. "gtx480"
	Leaf   string // MCL hardware-description leaf this device compiles for
	Vendor string // "nvidia", "amd", "intel"

	PeakSPFlops  float64 // single-precision peak, flop/s
	MemBandwidth float64 // global-memory bandwidth, bytes/s
	ComputeUnits int     // SMs / CUs / cores
	SIMDWidth    int     // warp/wavefront/vector width in lanes
	ClockHz      float64
	GlobalMem    int64 // device memory, bytes
	LocalMem     int64 // per-CU scratchpad, bytes

	PCIeBandwidth  float64       // effective host<->device bandwidth per direction, bytes/s
	PCIeLatency    time.Duration // per-transfer setup latency
	DMAEngines     int           // 1 = shared copy engine (consumer Fermi), 2 = dual
	LaunchOverhead time.Duration // kernel launch cost

	// StaticSpeed is Cashmere's static relative-speed table entry used to
	// bootstrap intra-node scheduling before measured kernel times exist
	// (Sec. III-B gives K20=40, GTX480=20).
	StaticSpeed int

	// BaseComputeEff and BaseBandwidthEff are the fractions of peak a
	// well-written OpenCL kernel achieves on this architecture, absent
	// kernel-specific penalties. They encode architecture-level effects the
	// MCPL analysis cannot see (instruction mix, occupancy, the quality of
	// the vendor's OpenCL stack — notoriously poor on the Xeon Phi, which
	// is why the Phi trails the GPUs throughout Fig. 6).
	BaseComputeEff   float64
	BaseBandwidthEff float64
}

// String implements fmt.Stringer.
func (s *Spec) String() string {
	return fmt.Sprintf("%s (%s, %.0f GFLOPS, %.0f GB/s)", s.Name, s.Vendor, s.PeakSPFlops/1e9, s.MemBandwidth/1e9)
}

// Catalog returns the device models of the seven many-core devices on DAS-4
// plus the host CPU (dual quad-core Xeon E5620) used for Satin baseline runs
// and CPU fallback leaves.
func Catalog() map[string]*Spec {
	specs := []*Spec{
		{
			Name: "gtx480", Leaf: "gtx480", Vendor: "nvidia",
			PeakSPFlops: 1345e9, MemBandwidth: 177.4e9,
			ComputeUnits: 15, SIMDWidth: 32, ClockHz: 1.401e9,
			GlobalMem: 1536 << 20, LocalMem: 48 << 10,
			PCIeBandwidth: 5.5e9, PCIeLatency: 12 * time.Microsecond,
			DMAEngines: 1, LaunchOverhead: 8 * time.Microsecond,
			StaticSpeed:    20,
			BaseComputeEff: 0.7, BaseBandwidthEff: 0.8,
		},
		{
			Name: "c2050", Leaf: "c2050", Vendor: "nvidia",
			PeakSPFlops: 1030e9, MemBandwidth: 144e9,
			ComputeUnits: 14, SIMDWidth: 32, ClockHz: 1.15e9,
			GlobalMem: 3 << 30, LocalMem: 48 << 10,
			PCIeBandwidth: 5.5e9, PCIeLatency: 12 * time.Microsecond,
			DMAEngines: 2, LaunchOverhead: 8 * time.Microsecond,
			StaticSpeed:    15,
			BaseComputeEff: 0.7, BaseBandwidthEff: 0.8,
		},
		{
			Name: "k20", Leaf: "k20", Vendor: "nvidia",
			PeakSPFlops: 3524e9, MemBandwidth: 208e9,
			ComputeUnits: 13, SIMDWidth: 32, ClockHz: 0.706e9,
			GlobalMem: 5 << 30, LocalMem: 48 << 10,
			PCIeBandwidth: 6e9, PCIeLatency: 10 * time.Microsecond,
			DMAEngines: 2, LaunchOverhead: 6 * time.Microsecond,
			StaticSpeed:    40,
			BaseComputeEff: 0.62, BaseBandwidthEff: 0.8,
		},
		{
			Name: "gtx680", Leaf: "gtx680", Vendor: "nvidia",
			PeakSPFlops: 3090e9, MemBandwidth: 192.2e9,
			ComputeUnits: 8, SIMDWidth: 32, ClockHz: 1.006e9,
			GlobalMem: 2 << 30, LocalMem: 48 << 10,
			PCIeBandwidth: 6e9, PCIeLatency: 10 * time.Microsecond,
			DMAEngines: 1, LaunchOverhead: 6 * time.Microsecond,
			StaticSpeed:    35,
			BaseComputeEff: 0.55, BaseBandwidthEff: 0.8,
		},
		{
			Name: "titan", Leaf: "titan", Vendor: "nvidia",
			PeakSPFlops: 4500e9, MemBandwidth: 288.4e9,
			ComputeUnits: 14, SIMDWidth: 32, ClockHz: 0.837e9,
			GlobalMem: 6 << 30, LocalMem: 48 << 10,
			PCIeBandwidth: 6e9, PCIeLatency: 10 * time.Microsecond,
			DMAEngines: 1, LaunchOverhead: 6 * time.Microsecond,
			StaticSpeed:    50,
			BaseComputeEff: 0.62, BaseBandwidthEff: 0.8,
		},
		{
			Name: "hd7970", Leaf: "hd7970", Vendor: "amd",
			PeakSPFlops: 3789e9, MemBandwidth: 264e9,
			ComputeUnits: 32, SIMDWidth: 64, ClockHz: 0.925e9,
			GlobalMem: 3 << 30, LocalMem: 64 << 10,
			PCIeBandwidth: 6e9, PCIeLatency: 14 * time.Microsecond,
			DMAEngines: 2, LaunchOverhead: 10 * time.Microsecond,
			StaticSpeed:    42,
			BaseComputeEff: 0.55, BaseBandwidthEff: 0.78,
		},
		{
			Name: "xeon_phi", Leaf: "xeon_phi", Vendor: "intel",
			PeakSPFlops: 2022e9, MemBandwidth: 160e9, // ECC-effective
			ComputeUnits: 60, SIMDWidth: 16, ClockHz: 1.053e9,
			GlobalMem: 8 << 30, LocalMem: 512 << 10,
			PCIeBandwidth: 6e9, PCIeLatency: 20 * time.Microsecond,
			DMAEngines: 2, LaunchOverhead: 30 * time.Microsecond,
			StaticSpeed:    10,
			BaseComputeEff: 0.3, BaseBandwidthEff: 0.45,
		},
		{
			// Host CPU: dual quad-core Xeon E5620 @ 2.4 GHz with SSE.
			Name: "cpu", Leaf: "cpu", Vendor: "intel",
			PeakSPFlops: 153.6e9, MemBandwidth: 25e9,
			ComputeUnits: 8, SIMDWidth: 4, ClockHz: 2.4e9,
			GlobalMem: 24 << 30, LocalMem: 12 << 20,
			PCIeBandwidth: 25e9, PCIeLatency: 0,
			DMAEngines: 2, LaunchOverhead: 1 * time.Microsecond,
			StaticSpeed:    2,
			BaseComputeEff: 0.5, BaseBandwidthEff: 0.7,
		},
	}
	m := make(map[string]*Spec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

// Lookup returns the named device spec or an error listing the catalog.
func Lookup(name string) (*Spec, error) {
	c := Catalog()
	if s, ok := c[name]; ok {
		return s, nil
	}
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("device: unknown device %q (catalog: %v)", name, names)
}

// KernelCost is the analysis-derived cost descriptor of one kernel launch on
// one device, produced by the MCL code generator.
type KernelCost struct {
	Flops        float64 // useful arithmetic operations
	MemBytes     float64 // off-chip memory traffic
	ComputeEff   float64 // (0,1] fraction of peak flops attainable
	BandwidthEff float64 // (0,1] fraction of peak bandwidth attainable
}

// Valid reports whether the cost descriptor is well-formed.
func (c KernelCost) Valid() bool {
	return c.Flops >= 0 && c.MemBytes >= 0 &&
		c.ComputeEff > 0 && c.ComputeEff <= 1 &&
		c.BandwidthEff > 0 && c.BandwidthEff <= 1
}

// KernelTime reports the modeled execution time of a kernel launch.
func (s *Spec) KernelTime(c KernelCost) time.Duration {
	if !c.Valid() {
		panic(fmt.Sprintf("device: invalid kernel cost %+v", c))
	}
	tc := c.Flops / (s.PeakSPFlops * c.ComputeEff)
	tm := c.MemBytes / (s.MemBandwidth * c.BandwidthEff)
	t := tc
	if tm > t {
		t = tm
	}
	return s.LaunchOverhead + time.Duration(t*float64(time.Second))
}

// GFLOPS reports the achieved GFLOP/s for a kernel with the given cost.
func (s *Spec) GFLOPS(c KernelCost) float64 {
	t := s.KernelTime(c).Seconds()
	if t <= 0 {
		return 0
	}
	return c.Flops / t / 1e9
}

// TransferTime reports the modeled time to move n bytes across PCIe in one
// direction.
func (s *Spec) TransferTime(n int64) time.Duration {
	return s.PCIeLatency + time.Duration(float64(n)/s.PCIeBandwidth*float64(time.Second))
}

// PageTransferTime reports the modeled time to service one demand fault of n
// bytes (an SVM page, or its partial tail). A fault is a round trip — the
// miss is reported upstream before the payload moves downstream — so it pays
// the PCIe setup latency twice where the one-way bulk path of TransferTime
// pays it once. At page granularity the latency term dominates: billing
// faults with the bandwidth-only bulk model would under-charge them by an
// order of magnitude.
func (s *Spec) PageTransferTime(n int64) time.Duration {
	return 2*s.PCIeLatency + time.Duration(float64(n)/s.PCIeBandwidth*float64(time.Second))
}

// PagedTransferTime reports the modeled time to move n bytes as a sequence
// of demand-paged faults of pageSize bytes each (the tail page partial):
// every page pays the PageTransferTime round-trip latency, the payload
// streams at PCIe bandwidth. Equal to the sum of PageTransferTime over the
// pages, in closed form.
func (s *Spec) PagedTransferTime(n, pageSize int64) time.Duration {
	if n <= 0 {
		return 0
	}
	if pageSize <= 0 {
		pageSize = n
	}
	pages := (n + pageSize - 1) / pageSize
	return time.Duration(pages)*2*s.PCIeLatency +
		time.Duration(float64(n)/s.PCIeBandwidth*float64(time.Second))
}
