package mcpl

import (
	"strings"
	"testing"
)

func TestArrayHelpers(t *testing.T) {
	a := NewFloatArray(3, 4)
	if a.Len() != 12 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Set(5, 2, 3)
	if a.At(2, 3) != 5 {
		t.Fatalf("At = %v", a.At(2, 3))
	}
	i := NewIntArray(2)
	i.Set(7, 1)
	if i.At(1) != 7 {
		t.Fatalf("int At = %v", i.At(1))
	}
	for _, idx := range [][]int{{1}, {3, 0}, {0, -1}} {
		if _, err := a.Offset(idx); err == nil {
			t.Errorf("Offset(%v) of a 3x4 array succeeded", idx)
		}
	}
}

// TestCoerceArg checks the calling convention every executor shares:
// Go ints widen, and mismatched kinds are errors naming the parameter.
func TestCoerceArg(t *testing.T) {
	n := Param{Name: "n", Type: Type{Kind: KindInt}}
	x := Param{Name: "x", Type: Type{Kind: KindFloat}}
	b := Param{Name: "b", Type: Type{Kind: KindBool}}
	xs := Param{Name: "xs", Type: Type{Kind: KindFloat, Dims: []Expr{&Ident{Name: "n"}}}}
	arr := NewFloatArray(2)
	for _, tc := range []struct {
		prm  Param
		arg  any
		want any
	}{
		{n, 3, int64(3)},
		{n, int64(4), int64(4)},
		{x, 2, 2.0},
		{x, int64(2), 2.0},
		{x, 0.5, 0.5},
		{b, true, true},
		{xs, arr, arr},
	} {
		got, err := CoerceArg(tc.prm, tc.arg)
		if err != nil || got != tc.want {
			t.Errorf("CoerceArg(%s, %v) = %v, %v; want %v", tc.prm.Name, tc.arg, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		prm  Param
		arg  any
		want string
	}{
		{n, 1.5, "argument n: cannot use float64 as int"},
		{b, 1, "argument b: cannot use int as boolean"},
		{xs, []float64{1}, "argument xs must be *Array"},
		{xs, NewIntArray(2), "argument xs element kind mismatch"},
	} {
		if _, err := CoerceArg(tc.prm, tc.arg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CoerceArg(%s, %v) err = %v, want %q", tc.prm.Name, tc.arg, err, tc.want)
		}
	}
}
