package nn

import "misusedetect/internal/scorer"

// The LanguageNetwork is the paper's per-cluster sequence model and a
// scorer.Scorer in its own right: the serving stack in internal/core
// scores it, like the classical backends of internal/baseline, through
// that interface, and advances many of its streams in one fused step
// through scorer.BatchStream.
var (
	_ scorer.Scorer      = (*LanguageNetwork)(nil)
	_ scorer.BatchStream = (*LanguageNetwork)(nil)
	_ scorer.Stream      = (*StreamState)(nil)
)

// BackendLSTM is the backend tag of the LSTM language model.
const BackendLSTM = "lstm"

// Backend returns the backend tag of the LSTM language model.
func (n *LanguageNetwork) Backend() string { return BackendLSTM }

// VocabSize returns the action-vocabulary size of the network.
func (n *LanguageNetwork) VocabSize() int { return n.cfg.InputSize }

// Config bundles network and trainer settings.
type Config struct {
	Network NetworkConfig
	Trainer TrainerConfig
}

// PaperConfig returns the hyperparameters the paper selects in its
// preparatory evaluation, for a vocabulary of the given size: 256 LSTM
// units, dropout 0.4, minibatch 32, lr 0.001, and a 100-action window.
func PaperConfig(vocab int, seed int64) Config {
	return Config{
		Network: NetworkConfig{InputSize: vocab, HiddenSize: 256, DropoutRate: 0.4, Seed: seed},
		Trainer: TrainerConfig{
			Epochs:       10,
			BatchSize:    32,
			LearningRate: 0.001,
			ClipNorm:     5,
			Seed:         seed + 1,
			WindowSize:   100,
		},
	}
}

// ScaledConfig returns a smaller configuration with the same architecture,
// for CPU-bound experiments; hidden is the LSTM width, epochs the training
// passes.
func ScaledConfig(vocab, hidden, epochs int, seed int64) Config {
	cfg := PaperConfig(vocab, seed)
	cfg.Network.HiddenSize = hidden
	cfg.Trainer.Epochs = epochs
	return cfg
}

// Train fits a language network on the encoded sessions of one behavior
// cluster. Sessions shorter than two actions are skipped (as in the
// paper); it is an error if nothing remains. The optional progress
// callback observes per-epoch statistics.
func Train(cfg Config, sessions [][]int, progress func(EpochStats)) (*LanguageNetwork, error) {
	net, err := NewLanguageNetwork(cfg.Network)
	if err != nil {
		return nil, err
	}
	trainer, err := NewTrainer(net, cfg.Trainer)
	if err != nil {
		return nil, err
	}
	if _, err := trainer.Fit(sessions, progress); err != nil {
		return nil, err
	}
	return net, nil
}
