package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestVectorSumScale(t *testing.T) {
	v := Vector{3, 4}
	if v.Sum() != 7 {
		t.Fatalf("Sum = %v", v.Sum())
	}
	v = Vector{1, 2}
	v.Scale(3)
	if v[1] != 6 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestMulVecAddAccumulates(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}}
	dst := Vector{10, 20}
	m.MulVecAdd(dst, Vector{1, 2})
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("MulVecAdd = %v", dst)
	}
}

func TestMulVecTAddSkipsZeros(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	dst := NewVector(2)
	m.MulVecTAdd(dst, Vector{0, 1}) // zero entry exercises the skip path
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("MulVecTAdd = %v", dst)
	}
}

func TestShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	cases := []func(){
		func() { m.MulVecAdd(NewVector(3), NewVector(3)) },
		func() { m.MulVecTAdd(NewVector(2), NewVector(3)) },
		func() { m.AddOuter(1, NewVector(3), NewVector(3)) },
		func() { Vector{1}.AddScaled(1, Vector{1, 2}) },
		func() { Softmax(NewVector(1), NewVector(2)) },
		func() { NewMatrix(-1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixZeroAndScale(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, 6}}
	a.Scale(2)
	if a.At(0, 1) != 12 {
		t.Fatalf("Scale = %v", a.Data)
	}
	a.Zero()
	if a.At(0, 0) != 0 || a.At(0, 1) != 0 {
		t.Fatal("Zero failed")
	}
	a.Scale(5) // zero stays zero
	if a.At(0, 0) != 0 {
		t.Fatal("Scale of zero changed values")
	}
}

func TestGaussianAndOrthogonalScaledInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(50, 50)
	GaussianInit(m, 2, rng)
	v := Vector(m.Data)
	if sd := StdDev(v); sd < 1.8 || sd > 2.2 {
		t.Fatalf("Gaussian std %v, want ~2", sd)
	}
	OrthogonalScaledInit(m, rng)
	want := 1 / math.Sqrt(50)
	if sd := StdDev(Vector(m.Data)); sd < want*0.9 || sd > want*1.1 {
		t.Fatalf("orthogonal-scaled std %v, want ~%v", sd, want)
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	// Softmax of nothing must be a no-op, not a panic.
	Softmax(nil, nil)
}

func TestHistogramSingleValue(t *testing.T) {
	counts, edges, err := Histogram(Vector{5, 5, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("degenerate histogram loses mass: %v", counts)
	}
	if edges[0] != 5 {
		t.Fatalf("edges = %v", edges)
	}
}

func TestPercentileSingleElement(t *testing.T) {
	p, err := Percentile(Vector{42}, 73)
	if err != nil || p != 42 {
		t.Fatalf("Percentile single = %v, %v", p, err)
	}
}
