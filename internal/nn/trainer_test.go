package nn

import "testing"

func TestEffectiveEpochs(t *testing.T) {
	mk := func(epochs, minSteps, maxEpochs, batch int) *Trainer {
		net := testNet(t, 3, 2, 0, 1)
		tr, err := NewTrainer(net, TrainerConfig{
			Epochs: epochs, BatchSize: batch, LearningRate: 0.1, WindowSize: 10,
			MinOptimizerSteps: minSteps, MaxEpochs: maxEpochs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := []struct {
		name                            string
		epochs, minSteps, maxEps, batch int
		examples                        int
		want                            int
	}{
		{"disabled", 5, 0, 0, 4, 100, 5},
		{"already enough", 5, 10, 0, 4, 100, 5}, // 25 steps/epoch * 5 > 10
		{"raised", 2, 100, 0, 4, 40, 10},        // 10 steps/epoch -> need 10 epochs
		{"capped by default 50", 1, 100000, 0, 4, 4, 50},
		{"capped by explicit", 1, 100000, 7, 4, 4, 7},
		{"explicit cap below epochs keeps epochs", 5, 100000, 3, 4, 4, 5},
		{"zero examples", 5, 100, 0, 4, 0, 5},
	}
	for _, c := range cases {
		tr := mk(c.epochs, c.minSteps, c.maxEps, c.batch)
		if got := tr.effectiveEpochs(c.examples); got != c.want {
			t.Errorf("%s: effectiveEpochs(%d) = %d, want %d", c.name, c.examples, got, c.want)
		}
	}
}

// MinOptimizerSteps must actually train longer on tiny corpora: a model
// with the floor converges further than one without.
func TestMinOptimizerStepsImprovesSmallCorpus(t *testing.T) {
	seq := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	train := func(minSteps int) float64 {
		net := testNet(t, 3, 8, 0, 2)
		tr, err := NewTrainer(net, TrainerConfig{
			Epochs: 2, BatchSize: 4, LearningRate: 0.02, ClipNorm: 5,
			WindowSize: 20, Seed: 3, MinOptimizerSteps: minSteps,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tr.Fit([][]int{seq, seq}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1].Loss
	}
	plain := train(0)
	budgeted := train(40)
	if budgeted >= plain {
		t.Fatalf("budgeted training loss %v >= plain %v", budgeted, plain)
	}
}

// TestFitLeavesWeightsAlone checks what a trained network keeps after
// Fit: no gradient buffer and no packed copy of any weight (the trainer
// packs into its own storage), so serving packs the trained weights
// fresh on first use.
func TestFitLeavesWeightsAlone(t *testing.T) {
	net, err := NewLanguageNetwork(NetworkConfig{InputSize: 11, HiddenSize: 6, DropoutRate: 0.4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, TrainerConfig{Epochs: 2, BatchSize: 3, LearningRate: 0.01, WindowSize: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit([][]int{randomSeq(9, 11, 1), randomSeq(4, 11, 2), randomSeq(13, 11, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		if p.G != nil {
			t.Errorf("after Fit, %s holds a gradient buffer", p.Name)
		}
		if p.pack.Load() != nil {
			t.Errorf("after Fit, %s holds a packed copy", p.Name)
		}
	}
}
