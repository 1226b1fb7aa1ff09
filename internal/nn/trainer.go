package nn

import (
	"fmt"
	"math/rand"

	"misusedetect/internal/actionlog"
)

// TrainerConfig holds the optimization hyperparameters. The paper selects
// minibatch size 32 and learning rate 0.001 in its preparatory evaluation.
type TrainerConfig struct {
	// Epochs over the training set.
	Epochs int
	// BatchSize is the number of examples per optimizer step.
	BatchSize int
	// LearningRate for Adam.
	LearningRate float64
	// ClipNorm bounds the global gradient norm per step (0 disables).
	ClipNorm float64
	// Seed shuffles the training order.
	Seed int64
	// Windowed selects the paper's exact many-to-one moving-window
	// training. When false the trainer predicts every action of a
	// session from its predecessors in one BPTT pass per segment: the
	// same next-action objective, but each transition is read once
	// instead of once per window that contains it (ARCHITECTURE.md,
	// "Offline training on every core").
	Windowed bool
	// WindowSize is the full moving-window length (100 in the paper);
	// sequence training also truncates BPTT segments to this length.
	WindowSize int
	// MinOptimizerSteps, when positive, raises the epoch count so the
	// model receives at least this many Adam steps regardless of corpus
	// size. Small behavior clusters need many passes to reach the same
	// training budget as the global baseline; comparing converged
	// models is what the paper's Figures 5 and 10 assume.
	MinOptimizerSteps int
	// MaxEpochs caps the MinOptimizerSteps adjustment (0 = 50).
	MaxEpochs int
}

func (c *TrainerConfig) validate() error {
	if c.Epochs < 1 {
		return fmt.Errorf("nn: Epochs must be >= 1, got %d", c.Epochs)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("nn: BatchSize must be >= 1, got %d", c.BatchSize)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("nn: LearningRate must be positive, got %v", c.LearningRate)
	}
	if c.WindowSize < 2 {
		return fmt.Errorf("nn: WindowSize must be >= 2, got %d", c.WindowSize)
	}
	return nil
}

// EpochStats reports training progress for one epoch.
type EpochStats struct {
	Epoch    int
	Loss     float64 // mean loss per prediction
	Examples int     // number of prediction targets
}

// Trainer fits a LanguageNetwork on encoded sessions.
type Trainer struct {
	cfg  TrainerConfig
	net  *LanguageNetwork
	adam *Adam
	rng  *rand.Rand
	// s is the lockstep minibatch scratch (trainbatch.go), grown to the
	// largest minibatch and reused for every Adam step.
	s trainScratch
}

// NewTrainer builds a trainer for the network.
func NewTrainer(net *LanguageNetwork, cfg TrainerConfig) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	adam, err := NewAdam(cfg.LearningRate)
	if err != nil {
		return nil, err
	}
	return &Trainer{
		cfg:  cfg,
		net:  net,
		adam: adam,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Fit trains on the encoded sessions (each a slice of action indices).
// Sessions shorter than two actions are skipped, as in the paper. The
// returned stats hold one entry per epoch. An optional progress callback
// receives each epoch's stats as it completes. The network's gradient
// buffers exist only while Fit runs: they are allocated zeroed when it
// starts and dropped when it returns, so the trained network holds its
// weights alone.
func (t *Trainer) Fit(sessions [][]int, progress func(EpochStats)) ([]EpochStats, error) {
	examples, err := t.examples(sessions)
	if err != nil {
		return nil, err
	}
	for i, ex := range examples {
		if err := t.net.checkExample(ex); err != nil {
			return nil, fmt.Errorf("nn: training example %d: %w", i, err)
		}
	}
	epochs := t.effectiveEpochs(len(examples))
	params := t.net.Params()
	allocGrads(params)
	defer dropGrads(params)
	var stats []EpochStats
	for epoch := 0; epoch < epochs; epoch++ {
		t.rng.Shuffle(len(examples), func(i, j int) { examples[i], examples[j] = examples[j], examples[i] })
		var lossSum float64
		var targets int
		for lo := 0; lo < len(examples); lo += t.cfg.BatchSize {
			batch := examples[lo:min(lo+t.cfg.BatchSize, len(examples))]
			t.trainBatch(batch, &lossSum)
			for _, ex := range batch {
				targets += len(ex.out)
			}
			t.step(params, len(batch))
		}
		st := EpochStats{Epoch: epoch, Loss: lossSum / float64(targets), Examples: targets}
		stats = append(stats, st)
		if progress != nil {
			progress(st)
		}
	}
	return stats, nil
}

// examples expands the sessions into the training examples of the
// configured mode. Sequence training predicts every action of a BPTT
// segment of at most WindowSize actions from its predecessors. Windowed
// training is the paper's exact formulation: every session becomes
// zero-padded moving windows, each a many-to-one example whose input is
// read from the zero state once its leading padding is trimmed.
func (t *Trainer) examples(sessions [][]int) ([]example, error) {
	var out []example
	if !t.cfg.Windowed {
		for _, s := range sessions {
			for _, seg := range segment(s, t.cfg.WindowSize) {
				out = append(out, example{in: seg[:len(seg)-1], out: seg[1:]})
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("nn: no trainable sessions (all shorter than 2 actions)")
		}
		return out, nil
	}
	w, err := actionlog.NewWindower(t.cfg.WindowSize)
	if err != nil {
		return nil, err
	}
	windows := w.Corpus(sessions)
	if len(windows) == 0 {
		return nil, fmt.Errorf("nn: no training windows (all sessions shorter than 2 actions)")
	}
	targets := make([]int, len(windows))
	for i, win := range windows {
		targets[i] = win.Target
		out = append(out, example{in: trimPadding(win.Input), out: targets[i : i+1]})
	}
	return out, nil
}

// effectiveEpochs raises the configured epoch count until the training
// budget reaches MinOptimizerSteps Adam steps, bounded by MaxEpochs.
func (t *Trainer) effectiveEpochs(examples int) int {
	epochs := t.cfg.Epochs
	if t.cfg.MinOptimizerSteps <= 0 || examples == 0 {
		return epochs
	}
	stepsPerEpoch := (examples + t.cfg.BatchSize - 1) / t.cfg.BatchSize
	need := (t.cfg.MinOptimizerSteps + stepsPerEpoch - 1) / stepsPerEpoch
	if need > epochs {
		epochs = need
	}
	maxEpochs := t.cfg.MaxEpochs
	if maxEpochs <= 0 {
		maxEpochs = 50
	}
	if epochs > maxEpochs {
		epochs = maxEpochs
	}
	if epochs < t.cfg.Epochs {
		epochs = t.cfg.Epochs
	}
	return epochs
}

// step averages the accumulated gradients over the batch, clips, and
// applies Adam.
func (t *Trainer) step(params []*Param, batch int) {
	if batch > 1 {
		inv := 1 / float64(batch)
		for _, p := range params {
			p.G.Scale(inv)
		}
	}
	if t.cfg.ClipNorm > 0 {
		ClipGradNorm(params, t.cfg.ClipNorm)
	}
	t.adam.Step(params)
}

// segment splits a session into BPTT chunks of at most size actions with a
// one-action overlap so every transition is trained exactly once. Sessions
// shorter than 2 produce nothing.
func segment(seq []int, size int) [][]int {
	if len(seq) < 2 {
		return nil
	}
	if len(seq) <= size {
		return [][]int{seq}
	}
	var out [][]int
	for start := 0; start < len(seq)-1; start += size - 1 {
		end := start + size
		if end > len(seq) {
			end = len(seq)
		}
		out = append(out, seq[start:end])
		if end == len(seq) {
			break
		}
	}
	return out
}

// trimPadding removes leading PaddingIndex entries from a window input;
// the zero-state LSTM start is the canonical encoding of "no history".
func trimPadding(input []int) []int {
	i := 0
	for i < len(input) && input[i] == actionlog.PaddingIndex {
		i++
	}
	return input[i:]
}
