package baseline

import (
	"math"
	"math/rand"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/scorer"
)

func cycleSessions(n, length, vocab int) [][]int {
	out := make([][]int, n)
	for i := range out {
		s := make([]int, length)
		for j := range s {
			s[j] = j % vocab
		}
		out[i] = s
	}
	return out
}

func TestNGramValidation(t *testing.T) {
	if _, err := TrainNGram([][]int{{0, 1}}, 0); err == nil {
		t.Fatal("zero vocab must fail")
	}
	if _, err := TrainNGram([][]int{{0, 1}}, actionlog.MaxVocabSize+1); err == nil {
		t.Fatal("a vocab above the loaders' bound must fail")
	}
	if _, err := TrainNGram([][]int{{0, 9}}, 3); err == nil {
		t.Fatal("out-of-vocab must fail")
	}
	if _, err := TrainNGram([][]int{{0}}, 3); err == nil {
		t.Fatal("no trainable sessions must fail")
	}
	m, err := TrainNGram([][]int{{0, 1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Prob([]int{0, 3}, 1); err == nil {
		t.Fatal("out-of-vocab context must fail")
	}
}

// TestNGramKeysKeepWideActions trains on two contexts whose actions
// agree in their low 16 bits: each must keep its own counts.
func TestNGramKeysKeepWideActions(t *testing.T) {
	m, err := TrainNGram([][]int{{1, 2}, {65537, 3}}, 65538)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ ctx, unseen int }{{1, 3}, {65537, 2}} {
		backoff, err := m.Prob(nil, c.unseen)
		if err != nil {
			t.Fatal(err)
		}
		// The context was followed by one other action only, so the
		// unseen one gets the discount's share of the unigram estimate.
		p, err := m.Prob([]int{c.ctx}, c.unseen)
		if err != nil {
			t.Fatal(err)
		}
		if p != 0.5*backoff {
			t.Fatalf("P(%d|%d) = %v, want %v: the context shares counts with another", c.unseen, c.ctx, p, 0.5*backoff)
		}
	}
}

func TestNGramProbsNormalized(t *testing.T) {
	m, err := TrainNGram(cycleSessions(5, 12, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range [][]int{{}, {0}, {0, 1}, {3, 0, 1}} {
		var sum float64
		for a := 0; a < 4; a++ {
			p, err := m.Prob(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			if p <= 0 || p > 1 {
				t.Fatalf("P(%d|%v) = %v", a, ctx, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probs for context %v sum to %v", ctx, sum)
		}
	}
	if _, err := m.Prob(nil, 9); err == nil {
		t.Fatal("bad action must fail")
	}
}

func TestNGramLearnsCycle(t *testing.T) {
	m, err := TrainNGram(cycleSessions(10, 12, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Prob([]int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.7 {
		t.Fatalf("P(2|0,1) = %v, want high on cycle corpus", p)
	}
	wrong, _ := m.Prob([]int{0, 1}, 0)
	if wrong >= p {
		t.Fatalf("wrong continuation as likely as right one: %v >= %v", wrong, p)
	}
}

func TestNGramUnseenContextBacksOff(t *testing.T) {
	m, err := TrainNGram(cycleSessions(5, 8, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Unseen bigram context backs off to unigram statistics, which are
	// nearly uniform on a cycle corpus; must stay a valid probability.
	p, err := m.Prob([]int{3, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 1 {
		t.Fatalf("backoff prob %v out of range", p)
	}
}

func TestNGramStepScoresAndMetrics(t *testing.T) {
	m, err := TrainNGram(cycleSessions(10, 12, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	normal := []int{0, 1, 2, 3, 0, 1, 2, 3}
	n, err := scorer.ScoreStream(m, normal)
	if err != nil {
		t.Fatal(err)
	}
	if n.Steps != 7 {
		t.Fatalf("got %d scored steps", n.Steps)
	}
	if n.Accuracy < 0.8 {
		t.Fatalf("cycle accuracy %v too low", n.Accuracy)
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]int, 8)
	for i := range random {
		random[i] = rng.Intn(4)
	}
	r, err := scorer.ScoreStream(m, random)
	if err != nil {
		t.Fatal(err)
	}
	if n.AvgLikelihood <= r.AvgLikelihood {
		t.Fatalf("normal likelihood %v <= random %v", n.AvgLikelihood, r.AvgLikelihood)
	}
	if n.AvgLoss >= r.AvgLoss {
		t.Fatalf("normal loss %v >= random %v", n.AvgLoss, r.AvgLoss)
	}
	if _, err := scorer.ScoreStream(m, []int{0}); err == nil {
		t.Fatal("short session must fail")
	}
	if _, err := scorer.ScoreCorpus(m, [][]int{{0}}); err == nil {
		t.Fatal("no scorable sessions must fail")
	}
}

func TestHandcraftedValidation(t *testing.T) {
	if _, err := TrainHandcrafted(nil, 4); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := TrainHandcrafted([][]int{{0}}, 0); err == nil {
		t.Fatal("zero vocab must fail")
	}
	if _, err := TrainHandcrafted([][]int{{9}}, 4); err == nil {
		t.Fatal("out-of-vocab must fail")
	}
	if _, err := TrainHandcrafted([][]int{{}}, 4); err == nil {
		t.Fatal("all-empty sessions must fail")
	}
}

func TestHandcraftedScoresTypicalVsAnomalous(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var train [][]int
	for i := 0; i < 100; i++ {
		n := 10 + rng.Intn(10)
		s := make([]int, n)
		for j := range s {
			// Actions 0-3 dominate training behavior.
			s[j] = rng.Intn(4)
		}
		train = append(train, s)
	}
	h, err := TrainHandcrafted(train, 8)
	if err != nil {
		t.Fatal(err)
	}
	typical := train[0]
	weird := make([]int, 15)
	for i := range weird {
		weird[i] = 4 + rng.Intn(4) // actions never seen in training
	}
	st, err := h.AnomalyScore(typical)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := h.AnomalyScore(weird)
	if err != nil {
		t.Fatal(err)
	}
	if st >= sw {
		t.Fatalf("typical score %v >= weird score %v", st, sw)
	}
	long := make([]int, 500)
	for i := range long {
		long[i] = rng.Intn(4)
	}
	sl, _ := h.AnomalyScore(long)
	if sl <= st {
		t.Fatalf("abnormally long session score %v <= typical %v", sl, st)
	}
	nt, _ := h.Normality(typical)
	nw, _ := h.Normality(weird)
	if nt <= nw {
		t.Fatalf("Normality inverted: %v <= %v", nt, nw)
	}
	if nt <= 0 || nt > 1 {
		t.Fatalf("Normality %v outside (0,1]", nt)
	}
	if _, err := h.AnomalyScore(nil); err == nil {
		t.Fatal("empty session must fail")
	}
	if _, err := h.AnomalyScore([]int{99}); err == nil {
		t.Fatal("out-of-vocab must fail")
	}
}
