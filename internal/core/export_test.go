package core

import "cashmere/internal/device"

// ReplayCost looks a launch up in the node's cost cache for the named kernel
// on device dev and also evaluates it afresh, for tests outside the package.
func ReplayCost(ns *NodeState, kernel string, dev int, params map[string]int64) (cached, fresh device.KernelCost, err error) {
	c := ns.kernels[kernel][dev]
	if cached, err = ns.kernelCost(c, params); err != nil {
		return cached, fresh, err
	}
	fresh, err = c.Cost(params)
	return cached, fresh, err
}
