package bench

import (
	"fmt"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/core"
)

// AblationStealPolicy runs the raytracer study on 8 nodes with the given
// steal policy (true = Satin's steal-oldest, false = steal-newest) and
// reports the achieved GFLOPS (DESIGN.md, ablation 2). For compute-heavy
// jobs with small inputs, stealing the oldest (largest) subtree minimizes
// steal rounds and wins; note that for communication-heavy matmul the
// picture inverts, because the largest job also carries the largest panels.
func AblationStealPolicy(stealOldest bool) (float64, error) {
	d := drivers()["raytracer"]
	cfg := core.DefaultConfig(8, "gtx480")
	cfg.Satin.StealOldest = stealOldest
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	ks, err := d.kernels(apps.CashmereOptimized)
	if err != nil {
		return 0, err
	}
	if err := cl.Register(ks); err != nil {
		return 0, err
	}
	res, err := d.run(cl, apps.CashmereOptimized)
	if err != nil {
		return 0, err
	}
	return res.GFLOPS, nil
}

// AblationFig16Split reproduces the scheduling decision of Fig. 16 in
// isolation: a node with a Xeon Phi and a K20 receives a set of 8 equal
// jobs; with measured times 4x apart the makespan-minimizing scheduler puts
// 1 job on the Phi and 7 on the K20. It returns the split.
func AblationFig16Split() (phiJobs, k20Jobs int, err error) {
	cfg := core.DefaultConfig(1, "k20")
	cfg.Nodes[0] = core.NodeSpec{Devices: []string{"xeon_phi", "k20"}}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return 0, 0, err
	}
	ks, err := apps.KMeansKernels(apps.CashmereOptimized)
	if err != nil {
		return 0, 0, err
	}
	if err := cl.Register(ks); err != nil {
		return 0, 0, err
	}
	sched := cl.NodeState(0).Sched
	// Seed measured times with the 4x ratio the paper reports.
	sched.Done("kmeans", 0, 0, 400*time.Millisecond)
	sched.Done("kmeans", 1, 0, 100*time.Millisecond)
	counts := make([]int, 2)
	type booking struct {
		dev int
		est time.Duration
	}
	var bs []booking
	for i := 0; i < 8; i++ {
		dev, est := sched.Pick("kmeans")
		counts[dev]++
		bs = append(bs, booking{dev, est})
	}
	for _, b := range bs {
		m := 100 * time.Millisecond
		if b.dev == 0 {
			m = 400 * time.Millisecond
		}
		sched.Done("kmeans", b.dev, b.est, m)
	}
	return counts[0], counts[1], nil
}

// VerifiedMatmul runs a verification-scale matmul (kernels executed for
// real through the closure engine on a 2-node cluster) and checks the
// result against the Go reference.
func VerifiedMatmul() error {
	cfg := core.DefaultConfig(2, "gtx480")
	cfg.Verify = true
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	ks, err := apps.MatmulKernels(apps.CashmereOptimized)
	if err != nil {
		return err
	}
	if err := cl.Register(ks); err != nil {
		return err
	}
	prob := apps.MatmulProblem{N: 64, LeafTile: 16, NodeLeaves: 4}
	data := apps.AttachMatmulData(cl, prob.N, 42)
	if _, err := apps.RunMatmul(cl, prob, apps.CashmereOptimized); err != nil {
		return err
	}
	apps.FlushMatmul(cl)
	if e := apps.MatmulMaxError(data); e > 1e-9 {
		return fmt.Errorf("verified matmul error %g", e)
	}
	return nil
}
