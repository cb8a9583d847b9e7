package mcpl

import "fmt"

// Array is an MCPL array value. Float arrays use F, int arrays use I.
// Data is flattened row-major.
type Array struct {
	Kind BasicKind
	Dims []int
	F    []float64
	I    []int64
}

// NewFloatArray allocates a float array with the given dimensions.
func NewFloatArray(dims ...int) *Array {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return &Array{Kind: KindFloat, Dims: dims, F: make([]float64, n)}
}

// NewIntArray allocates an int array with the given dimensions.
func NewIntArray(dims ...int) *Array {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return &Array{Kind: KindInt, Dims: dims, I: make([]int64, n)}
}

// Len reports the number of elements.
func (a *Array) Len() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// At returns the element at the given indices (for tests).
func (a *Array) At(idx ...int) float64 {
	off, err := a.Offset(idx)
	if err != nil {
		panic(err)
	}
	if a.Kind == KindFloat {
		return a.F[off]
	}
	return float64(a.I[off])
}

// Set stores v at the given indices (for tests).
func (a *Array) Set(v float64, idx ...int) {
	off, err := a.Offset(idx)
	if err != nil {
		panic(err)
	}
	if a.Kind == KindFloat {
		a.F[off] = v
	} else {
		a.I[off] = int64(v)
	}
}

// Offset returns the row-major offset of the element at idx, checking the
// rank and every index.
func (a *Array) Offset(idx []int) (int, error) {
	if len(idx) != len(a.Dims) {
		return 0, fmt.Errorf("rank mismatch: %d subscripts for rank %d", len(idx), len(a.Dims))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= a.Dims[i] {
			return 0, fmt.Errorf("index %d out of range [0,%d) in dimension %d", x, a.Dims[i], i)
		}
		off = off*a.Dims[i] + x
	}
	return off, nil
}

// CoerceArg converts a caller-supplied argument to the parameter's runtime
// representation (int64/float64/bool scalars, *Array by reference), widening
// Go ints for convenience. Every executor of checked programs calls it, so
// all accept identical calling conventions.
func CoerceArg(prm Param, a any) (any, error) {
	if prm.Type.IsArray() {
		arr, ok := a.(*Array)
		if !ok {
			return nil, fmt.Errorf("argument %s must be *Array, got %T", prm.Name, a)
		}
		if arr.Kind != prm.Type.Kind {
			return nil, fmt.Errorf("argument %s element kind mismatch", prm.Name)
		}
		return arr, nil
	}
	switch prm.Type.Kind {
	case KindInt:
		switch v := a.(type) {
		case int64:
			return v, nil
		case int:
			return int64(v), nil
		}
	case KindFloat:
		switch v := a.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(v), nil
		case int:
			return float64(v), nil
		}
	case KindBool:
		if v, ok := a.(bool); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("argument %s: cannot use %T as %s", prm.Name, a, prm.Type)
}
