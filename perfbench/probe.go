package main

import (
	"encoding/json"
	"math/rand"
	"slices"
	"time"
)

type probeItem struct {
	ID   int
	Name string
	Vals []float64
}

// probe times a fixed computation made only of the benchmark's own code
// and the standard library: JSON round trips of small records (allocation,
// reflection, GC), a sort and map updates. Its work never changes, so its
// time tracks how fast the host runs at the moment.
func probe() time.Duration {
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	items := make([]probeItem, 3000)
	for i := range items {
		items[i] = probeItem{r.Int(), "item", []float64{r.Float64(), r.Float64(), r.Float64()}}
	}
	b, err := json.Marshal(items)
	if err != nil {
		panic(err)
	}
	var back []probeItem
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	xs := make([]int, 200000)
	for i := range xs {
		xs[i] = r.Int()
	}
	slices.Sort(xs)
	m := make(map[int]int)
	for i, x := range xs {
		m[x%65536] += i
	}
	if len(back) != len(items) || len(m) == 0 {
		panic("probe: lost work")
	}
	return time.Since(t0)
}

// probeRef is the probe's time on the reference host: a 2-CPU Intel Xeon
// VM with go1.24.0, at GOMAXPROCS 1, in a quiet spell (measured 45-57 ms).
const probeRef = 50 * time.Millisecond

// atRefSpeed scales host seconds measured in r's iteration to the reference
// host's speed: x times probeRef over the probe's time in that iteration.
func (r *record) atRefSpeed(x float64) float64 {
	return x * probeRef.Seconds() / r.Probe
}
