package tensor

import (
	"fmt"
	"math"
)

// ExpInto sets dst[i] = math.Exp(src[i]) for every i, bit for bit.
// dst may be src itself but must not otherwise overlap it; it panics on
// a length mismatch.
//
// Where math.Exp runs its FMA branch (amd64 with AVX2 and FMA), an
// assembly kernel replays that branch four lanes at a time. A group of
// four holding a lane on which math.Exp would branch away — NaN, ±Inf,
// or outside (-708, 709), where the result nears overflow or denormals —
// is left to math.Exp, as are the last len mod 4 values and every value
// on other CPUs and ports.
func ExpInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ExpInto length mismatch %d vs %d", len(dst), len(src)))
	}
	i := 0
	if hasExpFMA {
		for {
			i += expFMA(dst[i:], src[i:])
			if len(src)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				dst[i] = math.Exp(src[i])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
