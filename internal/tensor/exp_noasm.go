//go:build !amd64

package tensor

// hasExpFMA is false off amd64: ExpInto calls math.Exp for every value.
const hasExpFMA = false

func expFMA(dst, src []float64) int {
	panic("tensor: FMA exp kernel called on a non-amd64 build")
}
