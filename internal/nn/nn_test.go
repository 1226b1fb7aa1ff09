package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"misusedetect/internal/tensor"
)

func testNet(t *testing.T, vocab, hidden int, dropout float64, seed int64) *LanguageNetwork {
	t.Helper()
	net, err := NewLanguageNetwork(NetworkConfig{
		InputSize: vocab, HiddenSize: hidden, DropoutRate: dropout, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNetworkConfigValidation(t *testing.T) {
	bad := []NetworkConfig{
		{InputSize: 0, HiddenSize: 2},
		{InputSize: 2, HiddenSize: 0},
		{InputSize: 2, HiddenSize: 2, DropoutRate: 1},
		{InputSize: 2, HiddenSize: 2, DropoutRate: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewLanguageNetwork(cfg); err == nil {
			t.Errorf("config %d must fail: %+v", i, cfg)
		}
	}
}

func TestForwardAllShapesAndSimplex(t *testing.T) {
	net := testNet(t, 7, 5, 0, 1)
	probs, err := net.ForwardAll([]int{0, 3, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 4 {
		t.Fatalf("got %d steps", len(probs))
	}
	for _, p := range probs {
		if len(p) != 7 {
			t.Fatalf("distribution size %d", len(p))
		}
		if math.Abs(p.Sum()-1) > 1e-9 {
			t.Fatalf("probs sum to %v", p.Sum())
		}
	}
	if _, err := net.ForwardAll([]int{9}); err == nil {
		t.Fatal("out-of-vocab index must fail")
	}
}

func TestForwardAllPaddingIsZeroInput(t *testing.T) {
	net := testNet(t, 5, 4, 0, 2)
	// Padding (-1) must be accepted and processed as a zero input.
	probs, err := net.ForwardAll([]int{-1, -1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 3 {
		t.Fatal("padding steps must still produce predictions")
	}
}

// numericalGradient perturbs every weight and compares the analytic
// gradient of the mean sequence loss against central differences.
func TestTrainSequenceGradientCheck(t *testing.T) {
	net := testNet(t, 6, 4, 0, 4) // dropout off: loss must be deterministic
	seq := []int{0, 3, 1, 5, 2, 4, 0, 1}

	lossOf := func() float64 {
		// Forward-only loss via ForwardAll.
		probs, err := net.ForwardAll(seq[:len(seq)-1])
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i, p := range probs {
			sum += -math.Log(p[seq[i+1]])
		}
		return sum / float64(len(probs))
	}

	// Analytic gradients.
	if _, _, err := net.TrainSequence(seq); err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	for _, p := range net.Params() {
		// Sample a handful of coordinates per parameter.
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 12; trial++ {
			i := rng.Intn(len(p.W.Data))
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			up := lossOf()
			p.W.Data[i] = orig - h
			down := lossOf()
			p.W.Data[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := p.G.Data[i]
			denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
			if rel := math.Abs(numeric-analytic) / denom; rel > 1e-4 {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v (rel %v)",
					p.Name, i, analytic, numeric, rel)
			}
		}
		p.ZeroGrad()
	}
}

// Gradient check for the paper's many-to-one window training.
func TestTrainWindowGradientCheck(t *testing.T) {
	net := testNet(t, 5, 3, 0, 5)
	input := []int{-1, -1, 2, 0, 4, 1} // includes padding
	target := 3

	lossOf := func() float64 {
		probs, err := net.ForwardAll(input)
		if err != nil {
			t.Fatal(err)
		}
		last := probs[len(probs)-1]
		return -math.Log(last[target])
	}

	if _, err := net.TrainWindow(input, target); err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	for _, p := range net.Params() {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 10; trial++ {
			i := rng.Intn(len(p.W.Data))
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			up := lossOf()
			p.W.Data[i] = orig - h
			down := lossOf()
			p.W.Data[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := p.G.Data[i]
			denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
			if rel := math.Abs(numeric-analytic) / denom; rel > 1e-4 {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v (rel %v)",
					p.Name, i, analytic, numeric, rel)
			}
		}
		p.ZeroGrad()
	}
}

func TestTrainSequenceValidation(t *testing.T) {
	net := testNet(t, 5, 3, 0, 6)
	if _, _, err := net.TrainSequence([]int{1}); err == nil {
		t.Fatal("length-1 sequence must fail")
	}
	if _, _, err := net.TrainSequence([]int{1, 9}); err == nil {
		t.Fatal("out-of-vocab must fail")
	}
	if _, err := net.TrainWindow(nil, 1); err == nil {
		t.Fatal("empty window must fail")
	}
	if _, err := net.TrainWindow([]int{1}, 9); err == nil {
		t.Fatal("bad target must fail")
	}
}

// The network must learn a deterministic cycle essentially perfectly.
func TestTrainingLearnsDeterministicPattern(t *testing.T) {
	net := testNet(t, 4, 16, 0, 7)
	trainer, err := NewTrainer(net, TrainerConfig{
		Epochs: 60, BatchSize: 4, LearningRate: 0.01, ClipNorm: 5, Seed: 8, WindowSize: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 0 1 2 3 0 1 2 3 ...
	seq := make([]int, 24)
	for i := range seq {
		seq[i] = i % 4
	}
	sessions := [][]int{seq, seq, seq, seq}
	stats, err := trainer.Fit(sessions, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats[0].Loss, stats[len(stats)-1].Loss
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if last > 0.15 {
		t.Fatalf("final loss %v too high for a deterministic pattern", last)
	}
	// Greedy predictions continue the cycle.
	probs, err := net.ForwardAll(seq[:8])
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 1; i < 8; i++ { // skip the first prediction (no context)
		if probs[i-1].ArgMax() == seq[i] {
			correct++
		}
	}
	if correct < 6 {
		t.Fatalf("only %d/7 cycle predictions correct", correct)
	}
}

func TestWindowedTrainingLearnsToo(t *testing.T) {
	net := testNet(t, 3, 12, 0, 9)
	trainer, err := NewTrainer(net, TrainerConfig{
		Epochs: 30, BatchSize: 8, LearningRate: 0.02, ClipNorm: 5, Seed: 1,
		Windowed: true, WindowSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	stats, err := trainer.Fit([][]int{seq, seq}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].Loss >= stats[0].Loss {
		t.Fatalf("windowed loss did not decrease: %v -> %v",
			stats[0].Loss, stats[len(stats)-1].Loss)
	}
}

func TestTrainerValidation(t *testing.T) {
	net := testNet(t, 3, 2, 0, 1)
	bad := []TrainerConfig{
		{Epochs: 0, BatchSize: 1, LearningRate: 0.1, WindowSize: 10},
		{Epochs: 1, BatchSize: 0, LearningRate: 0.1, WindowSize: 10},
		{Epochs: 1, BatchSize: 1, LearningRate: 0, WindowSize: 10},
		{Epochs: 1, BatchSize: 1, LearningRate: 0.1, WindowSize: 1},
	}
	for i, cfg := range bad {
		if _, err := NewTrainer(net, cfg); err == nil {
			t.Errorf("trainer config %d must fail", i)
		}
	}
	tr, _ := NewTrainer(net, TrainerConfig{Epochs: 1, BatchSize: 1, LearningRate: 0.1, WindowSize: 10})
	if _, err := tr.Fit([][]int{{1}}, nil); err == nil {
		t.Fatal("no trainable sessions must fail")
	}
}

func TestDropoutStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 10000
	x := tensor.NewVector(n)
	x.Fill(1)
	mask, err := Dropout(x, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for i := range x {
		if x[i] == 0 {
			zeros++
		} else if math.Abs(x[i]-1/0.6) > 1e-9 {
			t.Fatalf("survivor scaled to %v, want %v", x[i], 1/0.6)
		}
	}
	rate := float64(zeros) / float64(n)
	if rate < 0.37 || rate > 0.43 {
		t.Fatalf("empirical dropout rate %v, want ~0.4", rate)
	}
	// Mean should be preserved by inverted scaling.
	if m := tensor.Mean(x); m < 0.95 || m > 1.05 {
		t.Fatalf("inverted dropout mean %v, want ~1", m)
	}
	if mask == nil {
		t.Fatal("mask must be returned in training mode")
	}
	// Identity cases.
	y := tensor.Vector{1, 2}
	m2, err := Dropout(y, 0, rng)
	if err != nil || m2 != nil || y[0] != 1 {
		t.Fatal("rate 0 must be identity")
	}
	if _, err := Dropout(y, 1, rng); err == nil {
		t.Fatal("rate 1 must fail")
	}
}

func TestDropoutBackward(t *testing.T) {
	dx := tensor.Vector{1, 1, 1}
	DropoutBackward(dx, tensor.Vector{0, 2, 0})
	if dx[0] != 0 || dx[1] != 2 || dx[2] != 0 {
		t.Fatalf("DropoutBackward = %v", dx)
	}
	dy := tensor.Vector{3}
	DropoutBackward(dy, nil) // identity
	if dy[0] != 3 {
		t.Fatal("nil mask must be identity")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.Vector{1, 2, 3}
	probs, loss, dLogits, err := SoftmaxCrossEntropy(logits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs.Sum()-1) > 1e-12 {
		t.Fatal("probs not normalized")
	}
	if math.Abs(loss+math.Log(probs[2])) > 1e-12 {
		t.Fatal("loss is not -log p[target]")
	}
	// dLogits sums to zero (softmax Jacobian property).
	if math.Abs(dLogits.Sum()) > 1e-12 {
		t.Fatalf("dLogits sums to %v", dLogits.Sum())
	}
	if _, _, _, err := SoftmaxCrossEntropy(logits, 5); err == nil {
		t.Fatal("bad target must fail")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 for a single scalar parameter.
	p := NewParam("w", 1, 1)
	adam, err := NewAdam(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3)
		adam.Step([]*Param{p})
	}
	if math.Abs(p.W.Data[0]-3) > 1e-2 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
	if _, err := NewAdam(0); err == nil {
		t.Fatal("zero lr must fail")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	if math.Abs(GradNorm([]*Param{p})-1) > 1e-9 {
		t.Fatalf("post-clip norm %v, want 1", GradNorm([]*Param{p}))
	}
	// No clip when under the bound.
	p.G.Data[0], p.G.Data[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if math.Abs(p.G.Data[0]-0.3) > 1e-12 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := testNet(t, 6, 5, 0.4, 10)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLanguageNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config() != net.Config() {
		t.Fatalf("config mismatch: %+v vs %+v", back.Config(), net.Config())
	}
	// Identical predictions.
	seq := []int{0, 2, 4, 1}
	a, _ := net.ForwardAll(seq)
	b, _ := back.ForwardAll(seq)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("loaded network predicts differently")
			}
		}
	}
	if _, err := LoadLanguageNetwork(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage must fail to load")
	}
}

func TestStreamMatchesForwardAll(t *testing.T) {
	net := testNet(t, 6, 5, 0, 11)
	seq := []int{0, 3, 2, 5, 1}
	all, err := net.ForwardAll(seq)
	if err != nil {
		t.Fatal(err)
	}
	stream := net.NewStream()
	for i, a := range seq {
		p, next, err := stream.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if p != -1 {
				t.Fatalf("first observation must have probability -1, got %v", p)
			}
		} else if math.Abs(p-all[i-1][a]) > 1e-12 {
			t.Fatalf("step %d stream prob %v, batch prob %v", i, p, all[i-1][a])
		}
		for j := range next {
			if math.Abs(next[j]-all[i][j]) > 1e-12 {
				t.Fatalf("step %d next-dist mismatch", i)
			}
		}
	}
	if _, _, err := stream.Observe(99); err == nil {
		t.Fatal("out-of-vocab stream action must fail")
	}
}

func TestSegment(t *testing.T) {
	cases := []struct {
		n, size  int
		segments int
	}{
		{1, 10, 0},
		{2, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{19, 10, 2},
		{20, 10, 3},
	}
	for _, c := range cases {
		seq := make([]int, c.n)
		for i := range seq {
			seq[i] = i
		}
		segs := segment(seq, c.size)
		if len(segs) != c.segments {
			t.Errorf("segment(n=%d, size=%d) = %d segments, want %d", c.n, c.size, len(segs), c.segments)
			continue
		}
		// Every transition (i, i+1) must be covered exactly once.
		covered := map[int]int{}
		for _, s := range segs {
			for j := 0; j+1 < len(s); j++ {
				covered[s[j]]++
			}
		}
		for i := 0; i+1 < c.n; i++ {
			if covered[i] != 1 {
				t.Errorf("n=%d size=%d: transition from %d covered %d times", c.n, c.size, i, covered[i])
			}
		}
	}
}

func TestTrimPadding(t *testing.T) {
	got := trimPadding([]int{-1, -1, 3, 4})
	if len(got) != 2 || got[0] != 3 {
		t.Fatalf("trimPadding = %v", got)
	}
	if len(trimPadding([]int{1, 2})) != 2 {
		t.Fatal("no-pad input must be unchanged")
	}
}

func TestParamCount(t *testing.T) {
	net := testNet(t, 10, 4, 0, 12)
	// Wx: 16x10, Wh: 16x4, B: 1x16, dense W: 10x4, dense B: 1x10.
	want := 160 + 64 + 16 + 40 + 10
	if got := net.ParamCount(); got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
}

func TestSigmoid(t *testing.T) {
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if sigmoid(100) <= 0.999 || sigmoid(-100) >= 0.001 {
		t.Fatal("sigmoid saturation wrong")
	}
	if s := sigmoid(-745); s < 0 || math.IsNaN(s) {
		t.Fatalf("sigmoid underflow: %v", s)
	}
}
