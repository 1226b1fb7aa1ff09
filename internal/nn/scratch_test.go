package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamObserveMatchesObserveLikelihood pins the full Observe of cold
// callers to the likelihood-only serving call on the same stream type:
// identical likelihoods at every step, and each returned distribution
// holds, bit for bit, the likelihood the next action is then scored at.
func TestStreamObserveMatchesObserveLikelihood(t *testing.T) {
	net, err := NewLanguageNetwork(NetworkConfig{InputSize: 9, HiddenSize: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.NewStream(), net.NewStream()
	rng := rand.New(rand.NewSource(8))
	var prev []float64
	for step := 0; step < 150; step++ {
		x := rng.Intn(9)
		pA, probs, err := a.Observe(x)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := b.ObserveLikelihood(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pA) != math.Float64bits(pB) {
			t.Fatalf("step %d: likelihood %v (Observe) vs %v (ObserveLikelihood)", step, pA, pB)
		}
		if prev != nil && math.Float64bits(prev[x]) != math.Float64bits(pA) {
			t.Fatalf("step %d: previous distribution gave %v, likelihood %v", step, prev[x], pA)
		}
		prev = probs
	}
	if _, err := b.ObserveLikelihood(99); err == nil {
		t.Fatal("out-of-vocab action must fail")
	}
}

// TestStreamSteadyStateAllocs pins the serving call: after warmup,
// scoring an action on a stream allocates nothing — the batch of one
// borrows the network's pooled scratch.
func TestStreamSteadyStateAllocs(t *testing.T) {
	net, err := NewLanguageNetwork(NetworkConfig{InputSize: 9, HiddenSize: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := net.NewStream()
	for i := 0; i < 10; i++ {
		if _, err := s.ObserveLikelihood(i % 9); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.ObserveLikelihood(3); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("stream allocates %v objects per action, want 0", avg)
	}
}
