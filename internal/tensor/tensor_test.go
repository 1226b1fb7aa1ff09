package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 1}
	v.AddScaled(2, Vector{3, 4})
	if v[0] != 7 || v[1] != 9 {
		t.Fatalf("AddScaled = %v, want [7 9]", v)
	}
}

func TestVectorArgMax(t *testing.T) {
	cases := []struct {
		v    Vector
		want int
	}{
		{nil, -1},
		{Vector{5}, 0},
		{Vector{1, 3, 2}, 1},
		{Vector{2, 2, 2}, 0}, // ties to lowest index
		{Vector{-5, -1, -3}, 1},
	}
	for _, c := range cases {
		if got := c.v.ArgMax(); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestSoftmaxSimplexProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		src := make(Vector, len(raw))
		for i, x := range raw {
			// Bound the logits so exp stays finite but still spans a large range.
			src[i] = math.Mod(x, 50)
			if math.IsNaN(src[i]) {
				src[i] = 0
			}
		}
		dst := NewVector(len(src))
		Softmax(dst, src)
		var sum float64
		for _, p := range dst {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxPreservesOrder(t *testing.T) {
	src := Vector{1, 3, 2}
	dst := NewVector(3)
	Softmax(dst, src)
	if !(dst[1] > dst[2] && dst[2] > dst[0]) {
		t.Fatalf("Softmax must be monotone, got %v", dst)
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	v := Vector{0, 0}
	Softmax(v, v)
	if !almostEqual(v[0], 0.5, eps) || !almostEqual(v[1], 0.5, eps) {
		t.Fatalf("in-place Softmax = %v, want [0.5 0.5]", v)
	}
}

func TestSoftmaxLargeLogitsStable(t *testing.T) {
	src := Vector{1000, 1000, 999}
	dst := NewVector(3)
	Softmax(dst, src)
	for _, p := range dst {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("unstable softmax: %v", dst)
		}
	}
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set round trip failed")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must alias matrix storage")
	}
}

// MulVecAdd and MulVecTAdd into zero vectors on a non-square matrix.
func TestMulVecAndTranspose(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 3, 4, 5, 6}}
	dst := NewVector(3)
	m.MulVecAdd(dst, Vector{1, 1})
	want := Vector{3, 7, 11}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecAdd = %v, want %v", dst, want)
		}
	}
	dt := NewVector(2)
	m.MulVecTAdd(dt, Vector{1, 0, 1})
	if dt[0] != 6 || dt[1] != 8 {
		t.Fatalf("MulVecTAdd = %v, want [6 8]", dt)
	}
}

// MulVecTAdd(x) into a zero vector agrees with MulVecAdd over the
// explicitly built transpose.
func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(5, 7)
	GaussianInit(m, 1, rng)
	x := NewVector(5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := NewVector(7)
	m.MulVecTAdd(got, x)

	mt := NewMatrix(7, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			mt.Set(j, i, m.At(i, j))
		}
	}
	want := NewVector(7)
	mt.MulVecAdd(want, x)
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("MulVecTAdd mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, Vector{1, 2}, Vector{3, 4})
	want := [][]float64{{6, 8}, {12, 16}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("AddOuter = %v", m.Data)
			}
		}
	}
}

func TestMatrixCloneIndependence(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	if c.Rows != 1 || c.Cols != 2 || c.At(0, 0) != 1 {
		t.Fatalf("Clone = %+v", c)
	}
	c.Set(0, 0, 4)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(10, 10)
	XavierInit(m, 10, 10, rng)
	bound := math.Sqrt(6.0 / 20)
	for _, x := range m.Data {
		if x < -bound || x > bound {
			t.Fatalf("Xavier sample %v outside ±%v", x, bound)
		}
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	v := Vector{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(v); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(v); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(Vector{1}) != 0 {
		t.Fatal("degenerate cases must be zero")
	}
}

func TestPercentile(t *testing.T) {
	v := Vector{1, 2, 3, 4, 5}
	p50, err := Percentile(v, 50)
	if err != nil || p50 != 3 {
		t.Fatalf("P50 = %v err=%v, want 3", p50, err)
	}
	p0, _ := Percentile(v, 0)
	p100, _ := Percentile(v, 100)
	if p0 != 1 || p100 != 5 {
		t.Fatalf("P0=%v P100=%v", p0, p100)
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("expected error for empty vector")
	}
	if _, err := Percentile(v, 101); err == nil {
		t.Fatal("expected error for out-of-range percentile")
	}
}

func TestHistogram(t *testing.T) {
	counts, edges, err := Histogram(Vector{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if counts[0]+counts[1] != 10 {
		t.Fatalf("histogram loses mass: %v", counts)
	}
	if _, _, err := Histogram(nil, 3); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, _, err := Histogram(Vector{1}, 0); err == nil {
		t.Fatal("expected error for zero bins")
	}
}

// Histogram conserves total count for random inputs.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(raw []float64, nbins uint8) bool {
		bins := int(nbins%16) + 1
		v := make(Vector, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			return true
		}
		counts, _, err := Histogram(v, bins)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == len(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
