//go:build amd64

package tensor

import "math"

// hasExpFMA reports whether ExpInto may run expFMA: the CPU has AVX2
// (for the kernel's integer lanes) and FMA, and math.Exp agrees with
// the kernel on a probe set. math.Exp takes its FMA branch when the CPU
// has AVX and FMA, unless GODEBUG switches either off; the probe is
// what notices the latter.
var hasExpFMA = hasAVX2 && detectFMA() && expProbeAgrees()

// detectFMA reports CPUID.1:ECX.FMA. detectAVX2 has already checked
// that the OS saves the YMM state.
func detectFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
}

// expProbe holds arguments on which math.Exp's FMA and non-FMA branches
// return different bits (about one argument in eleven does).
var expProbe = [...]float64{-96, -69, -17, -3.75, 7.25, 19, 22, 60}

// expProbeAgrees reports whether the kernel returns math.Exp's bits on
// every probe argument, that is, whether math.Exp runs its FMA branch.
func expProbeAgrees() bool {
	got := expProbe
	if expFMA(got[:], got[:]) != len(got) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expFMA writes exp(src[i]) into dst[i], four values at a time from the
// start, and returns how many it wrote: a multiple of four, stopping
// before the first group of four that holds a value outside (-708, 709)
// or NaN, or at the last whole group. Each value is bit-identical to
// math.Exp's FMA branch. dst must be at least as long as src and may be
// src itself.
//
//go:noescape
func expFMA(dst, src []float64) int
