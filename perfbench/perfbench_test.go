package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's iteration child
// process, which the smoke runs start.
func TestMain(m *testing.M) {
	if spec := os.Getenv(iterationEnv); spec != "" {
		os.Exit(iterationMain(spec))
	}
	os.Exit(m.Run())
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string // innermost frame first
		want  string
	}{
		{[]string{"cashmere/internal/mcl/mcpl.(*checker).expr", "cashmere/internal/mcl/codegen.Analyze"}, "mcpl"},
		{[]string{"runtime.mallocgc", "runtime.makeslice", "cashmere/internal/mcl/codegen.(*Compiled).Cost", "cashmere/internal/core.(*Launch).Run"}, "codegen"},
		{[]string{"cashmere/internal/simnet.(*Kernel).Run.func1", "runtime.goexit"}, "simnet"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"main.iterate", "main.main"}, "other"},
		{[]string{"cashmere/internal/serve.Run[...]"}, "serve"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for profile fixtures.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(num int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

func (b *pb) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(num, p)
}

// TestLayerSamples decodes a hand-built CPU profile: two samples through an
// inlined allocation inside simnet (packed location list), one in a GC
// worker, and one with no repository frame (unpacked fields).
func TestLayerSamples(t *testing.T) {
	strs := []string{"", "samples", "count", "runtime.mallocgc",
		"cashmere/internal/simnet.(*Kernel).push", "runtime.gcBgMarkWorker", "main.main"}
	var p pb
	for fid := uint64(1); fid <= 4; fid++ {
		var f pb
		f.varint(functionID, fid)
		f.varint(functionName, fid+2)
		p.bytesField(profFunction, f.Bytes())
	}
	loc := func(id uint64, funcs ...uint64) {
		var l pb
		l.varint(locationID, id)
		for _, f := range funcs {
			var line pb
			line.varint(lineFunction, f)
			l.bytesField(locationLine, line.Bytes())
		}
		p.bytesField(profLocation, l.Bytes())
	}
	loc(1, 1, 2) // mallocgc inlined into simnet
	loc(2, 3)
	loc(3, 4)
	var s1 pb
	s1.packed(sampleLocationID, 1, 3, 3)
	s1.packed(sampleValue, 2, 20000000)
	p.bytesField(profSample, s1.Bytes())
	var s2 pb
	s2.packed(sampleLocationID, 2)
	s2.packed(sampleValue, 1, 10000000)
	p.bytesField(profSample, s2.Bytes())
	var s3 pb
	s3.varint(sampleLocationID, 3)
	s3.varint(sampleValue, 1)
	s3.varint(sampleValue, 10000000)
	p.bytesField(profSample, s3.Bytes())
	for _, s := range strs {
		p.bytesField(profStringTable, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	got, err := layerSamples(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"simnet": 2, "gc": 1, "other": 1}
	if len(got) != len(want) {
		t.Fatalf("layerSamples = %v, want %v", got, want)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("layerSamples = %v, want %v", got, want)
		}
	}
	if _, err := layerSamples(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestMaxRPSAtSLOBisection(t *testing.T) {
	// Attainment meets the target below 3000 req/s.
	attain := func(rps float64) (float64, error) {
		if rps < 3000 {
			return 1, nil
		}
		return 0.5, nil
	}
	got, err := maxRPSAtSLO(attain, 0, 12000, 0.95, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got > 3000 || got < 3000-12000.0/256 {
		t.Errorf("maxRPSAtSLO = %v, want within one step below 3000", got)
	}
}

func TestMaxRPSAtSLODeterministic(t *testing.T) {
	w := serve16(smoke)
	a, err := w.maxRPS(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.maxRPS(7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a <= 0 {
		t.Errorf("max_rps_at_slo for one seed: %v then %v", a, b)
	}
}

func TestQuantile(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %d, want 5", q)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesMatchBenchmarkJSON checks every metric and workload name
// against the allowed syntax and against BENCHMARK.json, which must list
// exactly what the code reports, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []struct{ name, unit string }, json []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, m := range json {
			units[m.Name] = m.Unit
		}
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(json), len(code))
		}
		for _, m := range code {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s metric %q: bad name", kind, m.name)
			}
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s metric %q (%s): BENCHMARK.json has unit %q, present %v", kind, m.name, m.unit, u, ok)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range workloads(full) {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(names)
	sort.Strings(listed)
	if len(names) != len(listed) {
		t.Fatalf("workloads: code %v, BENCHMARK.json %v", names, listed)
	}
	for i := range names {
		if names[i] != listed[i] || !nameRE.MatchString(names[i]) {
			t.Errorf("workloads: code %v, BENCHMARK.json %v", names, listed)
		}
	}
}

// TestSmokeWorkloads runs every workload at reduced size through both the
// untraced and the traced measurement and checks that outputs pass and the
// expected metrics are reported.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads(smoke) {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 3, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || len(res.errs) != 0 {
				t.Fatalf("failed %d of %d: %v", res.failed, res.attempted, res.errs)
			}
			if len(res.metrics) != len(endToEnd) {
				t.Errorf("metrics %v, want %v", res.metrics, endToEnd)
			}
			for _, d := range endToEnd {
				if m, ok := res.metrics[d.name]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %+v (present %v), want > 0", d.name, m, ok)
				}
			}

			tres, _, err := measureTraced(w, 3, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if tres.failed != 0 || tres.digest != res.digest {
				t.Fatalf("traced run: failed %d, digest %s vs untraced %s: %v", tres.failed, tres.digest, res.digest, tres.errs)
			}
			if len(tres.metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(tres.metrics), len(perLayer))
			}
			if tres.metrics["simnet.events"].Value <= 0 || tres.metrics["core.new_cluster_s"].Value <= 0 {
				t.Errorf("traced run missing counters: %v", tres.metrics)
			}
			if w.maxRPS != nil {
				for _, n := range []string{"serve.failed_frac", "serve.p50_ms", "serve.p99_ms", "serve.goodput_rps", "serve.max_rps_at_slo"} {
					if tres.metrics[n].Value <= 0 {
						t.Errorf("traced run: %s = %v, want > 0", n, tres.metrics[n].Value)
					}
				}
			}
		})
	}
}
