//go:build amd64

package tensor

// hasAVX2 reports whether the CPU and the OS support the AVX2 kernel:
// CPUID advertises AVX and AVX2, and XCR0 shows the OS saves the SSE
// and AVX register state across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// matMulWS16 sweeps blocks packed 16-row blocks of b (pack, as PackNT
// lays them out) against the m rows of a (length k, contiguous): for
// each block q and row i it stores the 16 lanes Σ_{kk<k}
// pack[(q·k+kk)·16+r]·a[i·k+kk] at dst[i·ldd+q·16+r], straight from the
// accumulators. Each lane is a +0-seeded chain over ascending k with a
// separate multiply and add, so it rounds like matMulWSGo's scalar
// reduction. m, k and blocks must be at least 1, and ldd at least
// 16·blocks.
//
//go:noescape
func matMulWS16(dst []float64, ldd int, pack, a []float64, k, m, blocks int)
