package drift

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// normalScores draws a stationary "healthy serving" score stream:
// truncated-gaussian smoothed-likelihood minima around a mean.
func normalScores(rng *rand.Rand, n int, mean, sd float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		x := mean + rng.NormFloat64()*sd
		if x < 0.01 {
			x = 0.01
		}
		if x > 0.99 {
			x = 0.99
		}
		out[i] = x
	}
	return out
}

func TestPageHinkleyQuietUnderStationaryScores(t *testing.T) {
	// False-trigger budget: 10 independent runs of 500 stationary
	// sessions each must never fire.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ph, err := NewPageHinkley(PHConfig{Delta: 0.01, Lambda: 1, MinObservations: 20})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range normalScores(rng, 500, 0.4, 0.05) {
			if ph.Observe(x) {
				t.Fatalf("seed %d: false trigger at session %d (statistic %.3f)", seed, i, ph.Statistic())
			}
		}
	}
}

func TestPageHinkleyDetectsMeanShiftWithinBoundedLag(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ph, err := NewPageHinkley(PHConfig{Delta: 0.01, Lambda: 1, MinObservations: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range normalScores(rng, 200, 0.4, 0.05) {
		if ph.Observe(x) {
			t.Fatal("fired before the shift")
		}
	}
	// Mean shifts down by 0.1: must be caught within 60 sessions.
	shifted := normalScores(rng, 60, 0.3, 0.05)
	fired := -1
	for i, x := range shifted {
		if ph.Observe(x) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatalf("mean shift of 0.1 not detected within %d sessions (statistic %.3f)", len(shifted), ph.Statistic())
	}
	t.Logf("page-hinkley detection lag: %d sessions", fired+1)
	ph.Reset()
	if ph.Observations() != 0 || ph.Statistic() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestKSWindowDetectsShapeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ks, err := NewKSWindow(KSConfig{Window: 40, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// First 40 observations freeze the reference; the next 200
	// stationary ones must stay quiet.
	for i, x := range normalScores(rng, 240, 0.4, 0.05) {
		if ks.Observe(x) {
			t.Fatalf("false trigger at observation %d (D=%.3f, crit=%.3f)", i, ks.Statistic(), ks.Critical())
		}
	}
	if ks.ReferenceSize() != 40 {
		t.Fatalf("reference size = %d", ks.ReferenceSize())
	}
	// A variance blow-up with the same mean: Page–Hinkley barely moves,
	// KS must catch it once the window has turned over.
	fired := -1
	for i, x := range normalScores(rng, 80, 0.4, 0.2) {
		if ks.Observe(x) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatalf("shape change not detected within 80 sessions (D=%.3f, crit=%.3f)", ks.Statistic(), ks.Critical())
	}
	t.Logf("ks detection lag: %d sessions", fired+1)
}

func TestKSWindowExplicitReference(t *testing.T) {
	ks, err := NewKSWindow(KSConfig{Window: 20, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ks.SetReference(normalScores(rng, 50, 0.5, 0.05))
	if ks.ReferenceSize() != 50 {
		t.Fatalf("reference size = %d", ks.ReferenceSize())
	}
	// With an installed reference, live observations go straight into
	// the sliding window: a disjoint distribution must fire as soon as
	// the window is full.
	for i := 0; i < 20; i++ {
		fired := ks.Observe(0.05)
		if i < 19 && fired {
			t.Fatalf("fired before the window filled (i=%d)", i)
		}
		if i == 19 && !fired {
			t.Fatalf("disjoint distribution not detected (D=%.3f, crit=%.3f)", ks.Statistic(), ks.Critical())
		}
	}
}

func TestUnknownRateDetectsVocabularyShift(t *testing.T) {
	u, err := NewUnknownRate(UnknownConfig{Window: 20, MaxRate: 0.05, MinActions: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Clean traffic: 15 scored actions per session, no unknowns.
	for i := 0; i < 100; i++ {
		if u.Observe(15, 0) {
			t.Fatalf("false trigger on clean traffic at session %d", i)
		}
	}
	// Vocabulary shift: 20%% of actions unknown; with a 20-session
	// window the rate must cross 5%% within a bounded number of
	// sessions.
	fired := -1
	for i := 0; i < 20; i++ {
		if u.Observe(12, 3) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatalf("vocabulary shift not detected (rate %.3f)", u.Rate())
	}
	t.Logf("unknown-rate detection lag: %d sessions", fired+1)
}

func TestMonitorComposesAndLatches(t *testing.T) {
	m, err := NewMonitor(3, Config{
		PageHinkley: PHConfig{Delta: 0.01, Lambda: 1, MinObservations: 20},
		KS:          KSConfig{Window: 30, Alpha: 0.01},
		Unknown:     UnknownConfig{Window: 20, MaxRate: 0.05, MinActions: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	// Stationary phase across 3 clusters: no signals.
	for i, x := range normalScores(rng, 300, 0.4, 0.05) {
		if got := m.ObserveSession(i%3, x, 15, 0); len(got) != 0 {
			t.Fatalf("false signal at session %d: %+v", i, got)
		}
	}
	if m.State().Drifted {
		t.Fatal("drifted before any shift")
	}
	// Hard drift on every front: scores collapse and unknowns spike.
	var signals []Signal
	for i := 0; i < 200; i++ {
		x := 0.1 + rng.NormFloat64()*0.03
		signals = append(signals, m.ObserveSession(i%3, x, 10, 5)...)
	}
	if !m.State().Drifted {
		t.Fatal("hard drift not detected")
	}
	byDetector := map[string]int{}
	for _, s := range signals {
		byDetector[s.Detector]++
	}
	if byDetector["page-hinkley"] == 0 {
		t.Fatalf("no page-hinkley signal: %+v", byDetector)
	}
	if byDetector["unknown-rate"] != 1 {
		t.Fatalf("unknown-rate must latch to exactly one signal, got %d", byDetector["unknown-rate"])
	}
	// Latching: the global PH bank fires once, each cluster bank once —
	// continued drift must not grow the signal count without bound.
	if byDetector["page-hinkley"] > 4 {
		t.Fatalf("page-hinkley signals not latched: %d", byDetector["page-hinkley"])
	}

	st := m.State()
	if !st.Drifted || st.Sessions != 500 {
		t.Fatalf("state = drifted %v, sessions %d", st.Drifted, st.Sessions)
	}
	if len(st.Clusters) != 3 || st.Global.Cluster != -1 {
		t.Fatalf("state banks = %d clusters, global %d", len(st.Clusters), st.Global.Cluster)
	}
	if !st.Global.PHDrifted {
		t.Fatal("global bank must report PH drift")
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("state must be JSON-encodable: %v", err)
	}

	// Reset re-arms everything.
	m.Reset()
	if m.State().Drifted {
		t.Fatal("drifted after reset")
	}
	if st := m.State(); st.Sessions != 0 {
		t.Fatalf("sessions after reset = %d", st.Sessions)
	}
	// Signal history survives the reset for the operator.
	if len(m.State().Signals) == 0 {
		t.Fatal("signal history lost on reset")
	}
}

func TestMonitorSkipsUnscoredSessions(t *testing.T) {
	m, err := NewMonitor(1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Sessions that never scored past warmup (minSmoothed -1) must not
	// feed the likelihood detectors.
	for i := 0; i < 100; i++ {
		m.ObserveSession(0, -1, 0, 0)
	}
	if st := m.State(); st.Global.Observations != 0 {
		t.Fatalf("unscored sessions reached the PH detector: %d", st.Global.Observations)
	}
	if _, err := NewMonitor(0, Config{}); err == nil {
		t.Fatal("zero clusters must fail")
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	if _, err := NewPageHinkley(PHConfig{Delta: -1}); err == nil {
		t.Fatal("negative delta must fail")
	}
	if _, err := NewPageHinkley(PHConfig{Lambda: -2}); err == nil {
		t.Fatal("negative lambda must fail")
	}
	if _, err := NewKSWindow(KSConfig{Window: 2}); err == nil {
		t.Fatal("tiny window must fail")
	}
	if _, err := NewKSWindow(KSConfig{Alpha: 2}); err == nil {
		t.Fatal("alpha >= 1 must fail")
	}
	if _, err := NewUnknownRate(UnknownConfig{MaxRate: 1.5}); err == nil {
		t.Fatal("rate >= 1 must fail")
	}
	if _, err := NewUnknownRate(UnknownConfig{Window: -1}); err == nil {
		t.Fatal("negative window must fail")
	}
}
