package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"misusedetect/internal/scorer"
)

// trainCycleModel trains a small model on a deterministic cycle corpus.
func trainCycleModel(t *testing.T) *LanguageNetwork {
	t.Helper()
	seq := make([]int, 30)
	for i := range seq {
		seq[i] = i % 5
	}
	cfg := ScaledConfig(5, 16, 40, 1)
	cfg.Trainer.LearningRate = 0.01
	cfg.Network.DropoutRate = 0
	m, err := Train(cfg, [][]int{seq, seq, seq}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	cfg := ScaledConfig(5, 4, 1, 1)
	if _, err := Train(cfg, [][]int{{1}}, nil); err == nil {
		t.Fatal("untrainable corpus must fail")
	}
	bad := cfg
	bad.Network.InputSize = 0
	if _, err := Train(bad, [][]int{{1, 2}}, nil); err == nil {
		t.Fatal("bad network config must fail")
	}
	bad2 := cfg
	bad2.Trainer.Epochs = 0
	if _, err := Train(bad2, [][]int{{1, 2}}, nil); err == nil {
		t.Fatal("bad trainer config must fail")
	}
}

func TestTrainProgressCallback(t *testing.T) {
	cfg := ScaledConfig(4, 4, 3, 2)
	cfg.Network.DropoutRate = 0
	calls := 0
	_, err := Train(cfg, [][]int{{0, 1, 2, 3}}, func(st EpochStats) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("progress called %d times, want 3", calls)
	}
}

// stepScores replays a session through the model's stream and returns
// the likelihood of every action after the first.
func stepScores(t *testing.T, m *LanguageNetwork, session []int) []float64 {
	t.Helper()
	st := m.NewStream()
	var out []float64
	for i, a := range session {
		lik, _, err := st.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			out = append(out, lik)
		}
	}
	return out
}

func TestStepScores(t *testing.T) {
	m := trainCycleModel(t)
	scores := stepScores(t, m, []int{0, 1, 2, 3, 4, 0, 1})
	if len(scores) != 6 {
		t.Fatalf("got %d step scores, want 6", len(scores))
	}
	for i, p := range scores {
		if p < 0 || p > 1 {
			t.Fatalf("score %d = %v outside [0,1]", i, p)
		}
	}
	// A trained cycle model should assign high probability late in the
	// session where context is unambiguous.
	if scores[len(scores)-1] < 0.5 {
		t.Fatalf("trained model final step score %v too low", scores[len(scores)-1])
	}
	if _, err := scorer.ScoreStream(m, []int{1}); err == nil {
		t.Fatal("short session must fail")
	}
	if _, err := scorer.ScoreStream(m, []int{0, 99}); err == nil {
		t.Fatal("out-of-vocab target must fail")
	}
}

func TestScoreSessionMetricsConsistent(t *testing.T) {
	m := trainCycleModel(t)
	session := []int{0, 1, 2, 3, 4, 0, 1, 2}
	sc, err := scorer.ScoreStream(m, session)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Steps != 7 {
		t.Fatalf("Steps = %d", sc.Steps)
	}
	if sc.AvgLikelihood <= 0 || sc.AvgLikelihood > 1 {
		t.Fatalf("AvgLikelihood = %v", sc.AvgLikelihood)
	}
	if sc.AvgLoss < 0 {
		t.Fatalf("AvgLoss = %v", sc.AvgLoss)
	}
	if math.Abs(sc.Perplexity-math.Exp(sc.AvgLoss)) > 1e-9 {
		t.Fatal("Perplexity != exp(AvgLoss)")
	}
	if sc.Accuracy < 0 || sc.Accuracy > 1 {
		t.Fatalf("Accuracy = %v", sc.Accuracy)
	}
	// On the learned cycle, accuracy should be high.
	if sc.Accuracy < 0.7 {
		t.Fatalf("cycle accuracy %v too low", sc.Accuracy)
	}
	if _, err := scorer.ScoreStream(m, []int{3}); err == nil {
		t.Fatal("short session must fail")
	}
}

func TestNormalVsRandomSessions(t *testing.T) {
	m := trainCycleModel(t)
	normal := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	rng := rand.New(rand.NewSource(7))
	random := make([]int, 10)
	for i := range random {
		random[i] = rng.Intn(5)
	}
	ns, err := scorer.ScoreStream(m, normal)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := scorer.ScoreStream(m, random)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core claim: normal behavior scores higher likelihood
	// and lower loss than random behavior.
	if ns.AvgLikelihood <= rs.AvgLikelihood {
		t.Fatalf("normal likelihood %v <= random %v", ns.AvgLikelihood, rs.AvgLikelihood)
	}
	if ns.AvgLoss >= rs.AvgLoss {
		t.Fatalf("normal loss %v >= random %v", ns.AvgLoss, rs.AvgLoss)
	}
}

func TestScoreCorpus(t *testing.T) {
	m := trainCycleModel(t)
	sessions := [][]int{
		{0, 1, 2, 3},
		{2, 3, 4, 0},
		{1}, // skipped
	}
	sc, err := scorer.ScoreCorpus(m, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Steps != 6 {
		t.Fatalf("pooled steps = %d, want 6", sc.Steps)
	}
	if _, err := scorer.ScoreCorpus(m, [][]int{{1}}); err == nil {
		t.Fatal("no scorable sessions must fail")
	}
}

// TestCorpusAccuracyAndLoss pins the pooled corpus accuracy and loss
// of the paper's Figures 4, 5 and 10, as scorer.ScoreCorpus computes
// them from the stream, bit for bit to the same pooling over the
// network's ForwardAll reference.
func TestCorpusAccuracyAndLoss(t *testing.T) {
	m := trainCycleModel(t)
	sessions := [][]int{
		{0, 1, 2, 3, 4, 0},
		{3, 4, 0, 1},
		{2},
	}
	sc, err := scorer.ScoreCorpus(m, sessions)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	var lossSum float64
	for _, s := range sessions[:2] {
		probs, err := m.ForwardAll(s[:len(s)-1])
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range s[1:] {
			if probs[i].ArgMax() == a {
				correct++
			}
			lossSum += -math.Log(probs[i][a])
			total++
		}
	}
	if want := float64(correct) / float64(total); math.Float64bits(sc.Accuracy) != math.Float64bits(want) {
		t.Fatalf("pooled accuracy %v, ForwardAll %v", sc.Accuracy, want)
	}
	if want := lossSum / float64(total); math.Float64bits(sc.AvgLoss) != math.Float64bits(want) {
		t.Fatalf("pooled loss %v, ForwardAll %v", sc.AvgLoss, want)
	}
	if sc.Accuracy < 0.6 {
		t.Fatalf("corpus accuracy %v too low for cycle data", sc.Accuracy)
	}
	if sc.AvgLoss < 0 || sc.AvgLoss > 2 {
		t.Fatalf("corpus loss %v unreasonable for learned cycle", sc.AvgLoss)
	}
	if _, err := scorer.ScoreCorpus(m, nil); err == nil {
		t.Fatal("empty corpus must fail")
	}
}

func TestModelSaveLoad(t *testing.T) {
	m := trainCycleModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLanguageNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.VocabSize() != m.VocabSize() {
		t.Fatal("vocab size changed across save/load")
	}
	session := []int{0, 1, 2, 3}
	a, _ := scorer.ScoreStream(m, session)
	b, _ := scorer.ScoreStream(back, session)
	if a != b {
		t.Fatalf("loaded model scores differently: %+v vs %+v", a, b)
	}
	if _, err := LoadLanguageNetwork(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk must fail to load")
	}
}

// TestStreamScoring pins the LSTM stream, the only scoring path, to
// the network's scalar ForwardAll reference over randomized sessions:
// every likelihood, and every argmax prediction, bit for bit.
func TestStreamScoring(t *testing.T) {
	m := trainCycleModel(t)
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 30; n++ {
		session := make([]int, 2+rng.Intn(30))
		for i := range session {
			session[i] = rng.Intn(m.VocabSize())
		}
		probs, err := m.ForwardAll(session)
		if err != nil {
			t.Fatal(err)
		}
		stream := m.NewStream()
		for i, a := range session {
			p, dist, err := stream.Observe(a)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && math.Float64bits(p) != math.Float64bits(probs[i-1][a]) {
				t.Fatalf("session %d position %d: stream %v, ForwardAll %v", n, i, p, probs[i-1][a])
			}
			if got, want := dist.ArgMax(), probs[i].ArgMax(); got != want {
				t.Fatalf("session %d position %d: stream argmax %d, ForwardAll %d", n, i, got, want)
			}
		}
	}
}

func TestPaperConfigDefaults(t *testing.T) {
	cfg := PaperConfig(300, 1)
	if cfg.Network.HiddenSize != 256 {
		t.Fatalf("hidden = %d, want 256", cfg.Network.HiddenSize)
	}
	if cfg.Network.DropoutRate != 0.4 {
		t.Fatalf("dropout = %v, want 0.4", cfg.Network.DropoutRate)
	}
	if cfg.Trainer.BatchSize != 32 {
		t.Fatalf("batch = %d, want 32", cfg.Trainer.BatchSize)
	}
	if cfg.Trainer.LearningRate != 0.001 {
		t.Fatalf("lr = %v, want 0.001", cfg.Trainer.LearningRate)
	}
	if cfg.Trainer.WindowSize != 100 {
		t.Fatalf("window = %d, want 100", cfg.Trainer.WindowSize)
	}
}

// TestModelAdvanceBatchMatchesSerial pins the scorer.BatchStream
// implementation to the serial stream path bit for bit: the property
// the engine's deterministic-replay anchors stand on.
func TestModelAdvanceBatchMatchesSerial(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		const vocab, hidden, streams = 23, 11, 8
		net, err := NewLanguageNetwork(NetworkConfig{InputSize: vocab, HiddenSize: hidden, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		batched := make([]scorer.Stream, streams)
		serial := make([]scorer.Stream, streams)
		for i := range batched {
			batched[i] = net.NewStream()
			serial[i] = net.NewStream()
		}
		rng := rand.New(rand.NewSource(31))
		actions := make([]int, streams)
		liks := make([]float64, streams)
		for tick := 0; tick < 12; tick++ {
			for i := range actions {
				actions[i] = rng.Intn(vocab)
			}
			if err := scorer.AdvanceBatch(net, batched, actions, liks); err != nil {
				t.Fatal(err)
			}
			for i, st := range serial {
				want, err := st.ObserveLikelihood(actions[i])
				if err != nil {
					t.Fatal(err)
				}
				if liks[i] != want {
					t.Fatalf("tick %d stream %d: batched likelihood %v, serial %v",
						tick, i, liks[i], want)
				}
			}
		}
	})
}
