package baseline

import (
	"math"
	"math/rand"
	"testing"

	"misusedetect/internal/actionlog"
)

func TestHMMValidation(t *testing.T) {
	if _, err := TrainHMM([][]int{{0}}, 2, HMMConfig{States: 0, Iterations: 1}); err == nil {
		t.Fatal("zero states must fail")
	}
	if _, err := TrainHMM([][]int{{0}}, 2, HMMConfig{States: 1, Iterations: 0}); err == nil {
		t.Fatal("zero iterations must fail")
	}
	if _, err := TrainHMM([][]int{{0}}, 0, DefaultHMMConfig(1)); err == nil {
		t.Fatal("zero vocab must fail")
	}
	if _, err := TrainHMM([][]int{{0}}, actionlog.MaxVocabSize+1, DefaultHMMConfig(1)); err == nil {
		t.Fatal("a vocab above the loaders' bound must fail")
	}
	if _, err := TrainHMM([][]int{{5}}, 2, DefaultHMMConfig(1)); err == nil {
		t.Fatal("out-of-vocab must fail")
	}
	if _, err := TrainHMM([][]int{{}}, 2, DefaultHMMConfig(1)); err == nil {
		t.Fatal("empty corpus must fail")
	}
}

func TestHMMDistributionsStayNormalized(t *testing.T) {
	m, err := TrainHMM(cycleSessions(8, 12, 4), 4, HMMConfig{States: 3, Iterations: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.initial.Sum(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("initial sums to %v", s)
	}
	for i := 0; i < m.states; i++ {
		if s := m.trans.Row(i).Sum(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("trans row %d sums to %v", i, s)
		}
		if s := m.emit.Row(i).Sum(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("emit row %d sums to %v", i, s)
		}
		for _, p := range m.emit.Row(i) {
			if p <= 0 {
				t.Fatal("emission probability not positive")
			}
		}
	}
}

func TestHMMTrainingIncreasesLikelihood(t *testing.T) {
	corpus := cycleSessions(10, 16, 4)
	short, err := TrainHMM(corpus, 4, HMMConfig{States: 4, Iterations: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	long, err := TrainHMM(corpus, 4, HMMConfig{States: 4, Iterations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var llShort, llLong float64
	for _, s := range corpus {
		a, _ := short.LogLikelihood(s)
		b, _ := long.LogLikelihood(s)
		llShort += a
		llLong += b
	}
	if llLong <= llShort {
		t.Fatalf("EM did not improve likelihood: %v -> %v", llShort, llLong)
	}
}

func TestHMMSeparatesNormalFromRandom(t *testing.T) {
	m, err := TrainHMM(cycleSessions(10, 16, 4), 4, HMMConfig{States: 5, Iterations: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	normal := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	rng := rand.New(rand.NewSource(5))
	random := make([]int, 10)
	for i := range random {
		random[i] = rng.Intn(4)
	}
	lnNormal, err := m.AvgLogLikelihood(normal)
	if err != nil {
		t.Fatal(err)
	}
	lnRandom, err := m.AvgLogLikelihood(random)
	if err != nil {
		t.Fatal(err)
	}
	if lnNormal <= lnRandom {
		t.Fatalf("HMM normal %v <= random %v", lnNormal, lnRandom)
	}
}

func TestHMMScoringValidation(t *testing.T) {
	m, err := TrainHMM(cycleSessions(5, 8, 3), 3, HMMConfig{States: 2, Iterations: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LogLikelihood(nil); err == nil {
		t.Fatal("empty session must fail")
	}
	if _, err := m.LogLikelihood([]int{9}); err == nil {
		t.Fatal("out-of-vocab must fail")
	}
	if m.States() != 2 {
		t.Fatalf("States = %d", m.States())
	}
}

func TestHMMLongSequenceNoUnderflow(t *testing.T) {
	m, err := TrainHMM(cycleSessions(5, 12, 4), 4, HMMConfig{States: 3, Iterations: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	long := make([]int, 5000)
	for i := range long {
		long[i] = i % 4
	}
	ll, err := m.LogLikelihood(long)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("scaled forward underflowed: %v", ll)
	}
}
