package core

import (
	"testing"

	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/satin"
	"cashmere/internal/svm"
)

// TestParseTransport covers the CLI mapping.
func TestParseTransport(t *testing.T) {
	for s, want := range map[string]Transport{"": TransportExplicit, "explicit": TransportExplicit, "svm": TransportSVM} {
		got, err := ParseTransport(s)
		if err != nil || got != want {
			t.Fatalf("ParseTransport(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseTransport("psychic"); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if TransportExplicit.String() != "explicit" || TransportSVM.String() != "svm" {
		t.Fatal("transport names wrong")
	}
}

// svmChainRun executes the three-stage scale chain (a graph-valued
// workload) under the given transport at verification scale and returns the
// output array plus the end time.
func svmChainRun(t *testing.T, transport Transport, proto svm.Protocol, graph bool, parts int) ([]float64, int64) {
	t.Helper()
	const n = 64
	arr := mcpl.NewFloatArray(n)
	for i := range arr.F {
		arr.F[i] = float64(i)
	}
	cfg := DefaultConfig(4, "k20")
	cfg.Verify = true
	cfg.Transport = transport
	cfg.SVM.Protocol = proto
	cfg.Partitions = parts
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	gs := chainSpec("diff", n, []any{int64(n), arr})
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		if graph {
			return RunGraph(ctx, gs)
		}
		return gs.RunNaive(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return arr.F, int64(end)
}

// TestGraphIdenticalOutputAcrossTransports is the graph-valued differential
// gate: the chained dataflow graph produces byte-identical output arrays
// under explicit copies and under SVM with either protocol — graph-scheduled
// and naive, sequential and 4-way partitioned — while modeled times differ
// between transports.
func TestGraphIdenticalOutputAcrossTransports(t *testing.T) {
	for _, graph := range []bool{true, false} {
		for _, parts := range []int{1, 4} {
			ref, tExp := svmChainRun(t, TransportExplicit, svm.WriteInvalidate, graph, parts)
			wi, tWI := svmChainRun(t, TransportSVM, svm.WriteInvalidate, graph, parts)
			ro, _ := svmChainRun(t, TransportSVM, svm.RegionOwnership, graph, parts)
			for i := range ref {
				if wi[i] != ref[i] || ro[i] != ref[i] {
					t.Fatalf("graph=%v partitions=%d: out[%d] explicit=%v wi=%v ro=%v",
						graph, parts, i, ref[i], wi[i], ro[i])
				}
			}
			// The closed form of three chained scales.
			for i, v := range ref {
				w := float64(i)
				for s := 0; s < 3; s++ {
					w = w*2 + 1
				}
				if v != w {
					t.Fatalf("graph=%v: result[%d] = %v, want %v", graph, i, v, w)
				}
			}
			if tExp == tWI {
				t.Errorf("graph=%v partitions=%d: explicit and SVM billed identical time %d", graph, parts, tExp)
			}
		}
	}
}

// TestLaunchBuffersFoldIntoExplicitTransfers checks the one-program-text
// contract: under the explicit transport a declared buffer access is billed
// as bulk copies (read bytes in, written bytes out), visible in the device's
// moved-byte count, and the SVM space stays untouched.
func TestLaunchBuffersFoldIntoExplicitTransfers(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	const n = 1 << 16
	_, _, err = cl.Run(func(ctx *satin.Context) any {
		b, err := NewSVMBuffer(ctx, "a", 4*n)
		if err != nil {
			return err
		}
		k, err := GetKernel(ctx, "scale")
		if err != nil {
			return err
		}
		spec := LaunchSpec{
			Params:  map[string]int64{"n": n},
			Buffers: []BufferAccess{{Buf: b, Mode: svm.ReadWrite}},
			Label:   "scale",
		}
		if err := k.NewLaunch(spec).Run(ctx); err != nil {
			return err
		}
		SyncSVM(ctx, b) // no-op: the host never lost ownership
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := cl.NodeState(0).Devices[0]
	if dev.BytesMoved() != 8*n {
		t.Fatalf("bytes moved = %d, want %d (buffer billed in and out)", dev.BytesMoved(), 8*int64(n))
	}
	// The host sync walks the 4 host-valid pages (hits); nothing faults,
	// migrates or invalidates under the explicit transport.
	c := cl.NodeState(0).Space.Counters()
	if c != (svm.Counters{Hits: 4}) {
		t.Fatalf("explicit transport touched SVM state: %+v", c)
	}
}
