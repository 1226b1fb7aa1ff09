package core

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseByteSize parses a human byte-size string — "512m", "1.5g",
// "268435456", with optional B/KB/MB/GB/TB suffixes in either case —
// into bytes (powers of 1024). It parses the misused -mem-budget flag.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("core: empty byte size")
	}
	mult := int64(1)
	t = strings.TrimSuffix(t, "b")
	switch {
	case strings.HasSuffix(t, "k"):
		mult, t = 1<<10, strings.TrimSuffix(t, "k")
	case strings.HasSuffix(t, "m"):
		mult, t = 1<<20, strings.TrimSuffix(t, "m")
	case strings.HasSuffix(t, "g"):
		mult, t = 1<<30, strings.TrimSuffix(t, "g")
	case strings.HasSuffix(t, "t"):
		mult, t = 1<<40, strings.TrimSuffix(t, "t")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("core: byte size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("core: byte size %q is negative", s)
	}
	// NaN fails the comparison too; 1<<63 itself does not fit an int64.
	n := v * float64(mult)
	if !(n < 1<<63) {
		return 0, fmt.Errorf("core: byte size %q is not a finite size below 2^63 bytes", s)
	}
	return int64(n), nil
}

// FormatByteSize renders bytes in the notation ParseByteSize accepts,
// picking the largest unit that keeps the value readable.
func FormatByteSize(n int64) string {
	const unit = 1 << 10
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit && exp < 3; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(n)/float64(div), "KMGT"[exp])
}
