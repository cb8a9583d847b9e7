package core

import (
	"slices"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
)

// The MCL cost of a launch depends on only a few of its scalar parameters:
// Compiled.CostDeps names them (see codegen.AnalyzeChecked for why that set
// is sound). So NodeState memoizes costs per compiled kernel in tables keyed
// by the launch's values of exactly those parameters. Raytracer leaves,
// which differ only in their first row, and n-body leaves, which differ only
// in their offset, then share one entry, and a hit is a few map lookups with
// no allocation. The dependency set changes with the values only in corner
// cases (a zero divisor makes the dividend irrelevant), so a kernel normally
// has one table; a kernel whose cost depends on more than maxCostDeps
// parameters is evaluated on every launch.

// maxCostDeps bounds the parameters one cost table keys on.
const maxCostDeps = 8

// costTuple holds a launch's values of one table's parameters, in order.
type costTuple [maxCostDeps]int64

// costTable memoizes the costs of launches that differ only outside deps.
type costTable struct {
	deps  []string
	costs map[costTuple]device.KernelCost
}

// costMemo is the cost cache of one compiled kernel on one node.
type costMemo struct {
	required []string // the kernel's scalar int parameters
	tables   []costTable
}

// key projects params onto the table's parameters; ok is false when one is
// missing.
func (t *costTable) key(params map[string]int64) (k costTuple, ok bool) {
	for i, name := range t.deps {
		if k[i], ok = params[name]; !ok {
			return k, false
		}
	}
	return k, true
}

// kernelCost returns the memoized cost of running the compiled kernel with
// the given parameters. Errors are not cached: a failing evaluation is the
// cold path to a CPU fallback. A launch missing one of the kernel's
// parameters always reaches the evaluation, so it fails as it would
// uncached.
func (ns *NodeState) kernelCost(c *codegen.Compiled, params map[string]int64) (device.KernelCost, error) {
	m := ns.costCache[c]
	if m != nil && hasAll(params, m.required) {
		for i := range m.tables {
			t := &m.tables[i]
			if k, ok := t.key(params); ok {
				if cost, hit := t.costs[k]; hit {
					ns.costHits++
					return cost, nil
				}
			}
		}
	}
	cost, deps, err := c.CostDeps(params)
	if err != nil {
		return cost, err
	}
	ns.costMisses++
	if len(deps) > maxCostDeps {
		return cost, nil
	}
	if m == nil {
		m = &costMemo{required: c.IntParams()}
		ns.costCache[c] = m
	}
	i := slices.IndexFunc(m.tables, func(t costTable) bool { return slices.Equal(t.deps, deps) })
	if i < 0 {
		m.tables = append(m.tables, costTable{deps: deps, costs: map[costTuple]device.KernelCost{}})
		i = len(m.tables) - 1
	}
	if k, ok := m.tables[i].key(params); ok {
		m.tables[i].costs[k] = cost
	}
	return cost, nil
}

func hasAll(params map[string]int64, names []string) bool {
	for _, name := range names {
		if _, ok := params[name]; !ok {
			return false
		}
	}
	return true
}

// CostCacheStats reports memoization hits and misses for this node.
func (ns *NodeState) CostCacheStats() (hits, misses int64) {
	return ns.costHits, ns.costMisses
}
