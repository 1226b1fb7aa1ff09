package lm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"misusedetect/internal/nn"
)

// trainCycleModel trains a small model on a deterministic cycle corpus.
func trainCycleModel(t *testing.T) *Model {
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
	_, err := Train(cfg, [][]int{{0, 1, 2, 3}}, func(st nn.EpochStats) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("progress called %d times, want 3", calls)
	}
}

func TestStepScores(t *testing.T) {
	m := trainCycleModel(t)
	session := []int{0, 1, 2, 3, 4, 0, 1}
	scores, err := m.StepScores(session)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := m.StepScores([]int{1}); err == nil {
		t.Fatal("short session must fail")
	}
	if _, err := m.StepScores([]int{0, 99}); err == nil {
		t.Fatal("out-of-vocab target must fail")
	}
}

func TestScoreSessionMetricsConsistent(t *testing.T) {
	m := trainCycleModel(t)
	session := []int{0, 1, 2, 3, 4, 0, 1, 2}
	sc, err := m.ScoreSession(session)
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
	if _, err := m.ScoreSession([]int{3}); err == nil {
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
	ns, err := m.ScoreSession(normal)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.ScoreSession(random)
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
	sc, err := m.ScoreCorpus(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Steps != 6 {
		t.Fatalf("pooled steps = %d, want 6", sc.Steps)
	}
	if _, err := m.ScoreCorpus([][]int{{1}}); err == nil {
		t.Fatal("no scorable sessions must fail")
	}
}

func TestCorpusAccuracyAndLoss(t *testing.T) {
	m := trainCycleModel(t)
	sessions := [][]int{
		{0, 1, 2, 3, 4, 0},
		{3, 4, 0, 1},
	}
	acc, err := m.CorpusAccuracy(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("corpus accuracy %v too low for cycle data", acc)
	}
	loss, err := m.CorpusLoss(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if loss < 0 || loss > 2 {
		t.Fatalf("corpus loss %v unreasonable for learned cycle", loss)
	}
	if _, err := m.CorpusAccuracy(nil); err == nil {
		t.Fatal("empty corpus must fail")
	}
	if _, err := m.CorpusLoss(nil); err == nil {
		t.Fatal("empty corpus must fail")
	}
}

func TestModelSaveLoad(t *testing.T) {
	m := trainCycleModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.VocabSize() != m.VocabSize() {
		t.Fatal("vocab size changed across save/load")
	}
	session := []int{0, 1, 2, 3}
	a, _ := m.ScoreSession(session)
	b, _ := back.ScoreSession(session)
	if a != b {
		t.Fatalf("loaded model scores differently: %+v vs %+v", a, b)
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk must fail to load")
	}
}

func TestStreamScoring(t *testing.T) {
	m := trainCycleModel(t)
	session := []int{0, 1, 2, 3, 4}
	batch, err := m.StepScores(session)
	if err != nil {
		t.Fatal(err)
	}
	stream := m.NewStream()
	for i, a := range session {
		p, _, err := stream.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && math.Abs(p-batch[i-1]) > 1e-12 {
			t.Fatalf("stream score %v != batch score %v at %d", p, batch[i-1], i)
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
