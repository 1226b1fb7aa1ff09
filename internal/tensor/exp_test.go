package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// expSpecials are the arguments on which math.Exp branches away from its
// polynomial, or sits next to such a branch: signed zeros, infinities,
// NaN, the overflow threshold and its neighbours, the edges of the
// kernel's range, arguments with denormal results and the underflow to
// zero.
func expSpecials() []float64 {
	const overflow = 7.09782712893384e+02
	return []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		overflow, math.Nextafter(overflow, 0), math.Nextafter(overflow, 1000),
		709, math.Nextafter(709, 0), math.Nextafter(709, 1000), 709.5,
		-708, math.Nextafter(-708, 0), math.Nextafter(-708, -1000),
		-708.5, -710, -720, -740, -745.1, -745.2, -746, -1e300, 1e300,
		0x1p-1074, -0x1p-1074, 1e-300, -1e-300, 0.5, -0.5, 1, -1,
	}
}

// checkExpInto runs ExpInto on a copy of src, both into a separate dst
// and in place, and fails on the first value that is not math.Exp's bit
// for bit (any NaN is not enough: math.Exp returns a NaN argument
// unchanged, so the payload must survive too).
func checkExpInto(t *testing.T, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	ExpInto(dst, src)
	inPlace := append([]float64(nil), src...)
	ExpInto(inPlace, inPlace)
	for i, x := range src {
		want := math.Float64bits(math.Exp(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("ExpInto(%v) at %d of %d = %#x, math.Exp %#x", x, i, len(src), got, want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("in-place ExpInto(%v) at %d of %d = %#x, math.Exp %#x", x, i, len(src), got, want)
		}
	}
}

// TestExpIntoMatchesMathExp pins ExpInto to math.Exp bit for bit: a
// million uniform draws over the kernel's range, every special argument
// at every lane position of a group and of the scalar tail, and every
// length from 0 to 9.
func TestExpIntoMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 1<<20)
	for i := range src {
		src[i] = rng.Float64()*1417 - 708
	}
	checkExpInto(t, src)
	// Small magnitudes, where the reduction leaves n = 0.
	for i := range src[:1<<16] {
		src[i] = rng.NormFloat64()
	}
	checkExpInto(t, src[:1<<16])

	specials := expSpecials()
	for n := 0; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			for _, s := range specials {
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = rng.Float64()*40 - 20
				}
				buf[pos] = s
				checkExpInto(t, buf)
			}
		}
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = rng.Float64()*1417 - 708
		}
		checkExpInto(t, buf)
	}
	checkExpInto(t, specials)
}

func TestExpIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	ExpInto(make([]float64, 3), make([]float64, 4))
}

// FuzzExpIntoMatchesMathExp checks ExpInto against math.Exp on arbitrary
// bit patterns, each at every lane of a group and in the scalar tail.
func FuzzExpIntoMatchesMathExp(f *testing.F) {
	for _, s := range expSpecials() {
		f.Add(math.Float64bits(s))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		for n := 1; n <= 8; n++ {
			for pos := 0; pos < n; pos++ {
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = float64(i) - 3.5
				}
				buf[pos] = x
				checkExpInto(t, buf)
			}
		}
	})
}

func BenchmarkExpInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 1024)
	for i := range src {
		src[i] = rng.Float64()*40 - 30
	}
	dst := make([]float64, len(src))
	b.Run("ExpInto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpInto(dst, src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = math.Exp(x)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
	})
}

// TestSoftmaxMatchesScalarExp pins Softmax, which takes its exps through
// ExpInto, to the scalar formulation — exp(x - max) per element with
// math.Exp, summed ascending — bit for bit, in place and not, on logit
// rows whose shifted values reach past the vector kernel's range.
func TestSoftmaxMatchesScalarExp(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 4, 7, 300, 301} {
		for _, scale := range []float64{1, 30, 400} {
			src := make(Vector, n)
			for i := range src {
				src[i] = rng.NormFloat64() * scale
			}
			want := make(Vector, n)
			maxVal := src[src.ArgMax()]
			var sum float64
			for i, x := range src {
				want[i] = math.Exp(x - maxVal)
				sum += want[i]
			}
			inv := 1 / sum
			for i := range want {
				want[i] *= inv
			}
			got := NewVector(n)
			Softmax(got, src)
			Softmax(src, src)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(src[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d scale=%v: Softmax[%d] = %v (in place %v), scalar %v", n, scale, i, got[i], src[i], want[i])
				}
			}
		}
	}
}

// TestSoftmaxAtMatchesSoftmax pins the likelihood head to Softmax of the
// biased row, read at one index, bit for bit: row counts cover the
// four-row groups and every tail, row lengths leave every tail of the
// exp kernel's groups of four, scales reach past its range, and some
// rows hold ±Inf or NaN logits.
func TestSoftmaxAtMatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := expSpecials()
	for rows := 1; rows <= 9; rows++ {
		for _, n := range []int{1, 3, 4, 7, 300, 301} {
			for _, scale := range []float64{1, 30, 400} {
				logits, bias := NewMatrix(rows, n+rng.Intn(3)), NewVector(n)
				for i := range logits.Data {
					logits.Data[i] = rng.NormFloat64() * scale
					if rng.Intn(64) == 0 {
						logits.Data[i] = specials[rng.Intn(len(specials))]
					}
				}
				for j := range bias {
					bias[j] = rng.NormFloat64()
				}
				at := make([]int, rows)
				want := make([]float64, rows)
				for i := range at {
					at[i] = rng.Intn(n)
					probs := append(Vector(nil), logits.Row(i)[:n]...)
					for j := range probs {
						probs[j] += bias[j]
					}
					Softmax(probs, probs)
					want[i] = probs[at[i]]
				}
				got := make([]float64, rows)
				SoftmaxAt(got, logits, bias, at)
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("rows=%d n=%d scale=%v: row %d SoftmaxAt %v, Softmax %v", rows, n, scale, i, got[i], want[i])
					}
				}
			}
		}
	}
}
