package drift

import (
	"fmt"
	"math"
	"sort"
)

// KSConfig tunes a windowed two-sample Kolmogorov–Smirnov detector.
type KSConfig struct {
	// Window is both the size of the frozen reference window (the first
	// Window observations after a reset) and of the sliding recent
	// window compared against it. Defaults to 40.
	Window int `json:"window"`
	// Alpha is the significance level of the KS test: the detector
	// alarms when the KS statistic exceeds the critical value
	// c(α)·sqrt((n+m)/(n·m)). Defaults to 0.01.
	Alpha float64 `json:"alpha"`
}

func (c *KSConfig) setDefaults() {
	if c.Window == 0 {
		c.Window = 40
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
}

func (c *KSConfig) validate() error {
	if c.Window < 5 {
		return fmt.Errorf("drift: KS Window must be >= 5, got %d", c.Window)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("drift: KS Alpha %v outside (0,1)", c.Alpha)
	}
	return nil
}

// KSWindow compares a sliding window of recent observations against a
// reference window frozen at (re)start: the distribution the model was
// known-good on. Unlike Page–Hinkley it sees any change of shape —
// variance inflation, bimodality from a new user population — not just
// the mean. Not safe for concurrent use; Monitor serializes access.
type KSWindow struct {
	cfg       KSConfig
	reference []float64 // sorted once frozen
	frozen    bool
	recent    []float64 // ring buffer in arrival order
	next      int
	full      bool
}

// NewKSWindow builds a detector, applying defaults for zero fields.
func NewKSWindow(cfg KSConfig) (*KSWindow, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &KSWindow{cfg: cfg}, nil
}

// SetReference installs an explicit reference sample (e.g. the held-out
// validation scores captured at calibration) instead of capturing the
// first Window live observations.
func (k *KSWindow) SetReference(scores []float64) {
	k.reference = append([]float64(nil), scores...)
	sort.Float64s(k.reference)
	k.frozen = true
	k.recent = nil
	k.next, k.full = 0, false
}

// Observe consumes one observation. The first Window observations after
// a reset freeze the reference (unless SetReference installed one);
// afterwards the sliding window fills and, once full, every observation
// re-runs the test. It reports whether the distributions differ at the
// configured significance.
func (k *KSWindow) Observe(x float64) bool {
	if !k.frozen {
		k.reference = append(k.reference, x)
		if len(k.reference) == k.cfg.Window {
			sort.Float64s(k.reference)
			k.frozen = true
		}
		return false
	}
	if len(k.recent) < k.cfg.Window {
		k.recent = append(k.recent, x)
		k.full = len(k.recent) == k.cfg.Window
	} else {
		k.recent[k.next] = x
		k.next = (k.next + 1) % k.cfg.Window
	}
	if !k.full {
		return false
	}
	return k.Statistic() > k.Critical()
}

// Statistic returns the current two-sample KS statistic (0 until the
// recent window is full).
func (k *KSWindow) Statistic() float64 {
	if !k.full || len(k.reference) == 0 {
		return 0
	}
	cur := append([]float64(nil), k.recent...)
	sort.Float64s(cur)
	return ksStatistic(k.reference, cur)
}

// Critical returns the alarm threshold for the current sample sizes.
func (k *KSWindow) Critical() float64 {
	n, m := float64(len(k.reference)), float64(len(k.recent))
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	c := math.Sqrt(-math.Log(k.cfg.Alpha/2) / 2)
	return c * math.Sqrt((n+m)/(n*m))
}

// ReferenceSize returns the size of the frozen reference window (0 while
// still capturing).
func (k *KSWindow) ReferenceSize() int {
	if !k.referenceFrozen() {
		return 0
	}
	return len(k.reference)
}

// Reset forgets reference and window: the next observations capture a
// fresh reference for the new model generation.
func (k *KSWindow) Reset() {
	k.reference, k.recent = nil, nil
	k.next, k.full, k.frozen = 0, false, false
}

func (k *KSWindow) referenceFrozen() bool { return k.frozen }

// ksStatistic computes sup |F_a - F_b| over two sorted samples by a
// linear merge walk.
func ksStatistic(a, b []float64) float64 {
	var i, j int
	var d float64
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}
