// Package lm wraps the neural network of package nn into the LSTM-based
// language model over action sequences used by the paper: training on the
// sessions of one behavior cluster and next-action prediction through the
// scorer.Stream the serving stack drives. The paper's normality measures
// (average likelihood, Kim et al.'s cross-entropy loss, perplexity,
// accuracy) come from scorer.ScoreCorpus, the one scoring path every
// backend shares.
package lm

import (
	"fmt"
	"io"

	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// BackendLSTM is the scorer-registry tag of the LSTM language model.
const BackendLSTM = "lstm"

// Model is a scorer.Scorer: the serving stack in internal/core scores
// any backend through that interface, the LSTM being the default. The
// stream assertions pin the seam from this side, so nn never has to
// import the serving contract.
var (
	_ scorer.Scorer      = (*Model)(nil)
	_ scorer.Stream      = (*nn.StreamState)(nil)
	_ scorer.BatchStream = (*Model)(nil)
)

func init() {
	scorer.Register(BackendLSTM, func(r io.Reader) (scorer.Scorer, error) { return Load(r) })
}

// Config bundles network and trainer settings.
type Config struct {
	Network nn.NetworkConfig
	Trainer nn.TrainerConfig
}

// PaperConfig returns the paper's hyperparameters for a vocabulary of the
// given size: 256 LSTM units, dropout 0.4, minibatch 32, lr 0.001.
func PaperConfig(vocab int, seed int64) Config {
	return Config{
		Network: nn.PaperNetworkConfig(vocab, seed),
		Trainer: nn.PaperTrainerConfig(seed + 1),
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

// Model is a trained language model over a fixed action vocabulary.
type Model struct {
	net *nn.LanguageNetwork
}

// Train fits a language model on the encoded sessions of one behavior
// cluster. Sessions shorter than two actions are skipped (as in the
// paper); it is an error if nothing remains. The optional progress
// callback observes per-epoch statistics.
func Train(cfg Config, sessions [][]int, progress func(nn.EpochStats)) (*Model, error) {
	net, err := nn.NewLanguageNetwork(cfg.Network)
	if err != nil {
		return nil, fmt.Errorf("lm: build network: %w", err)
	}
	trainer, err := nn.NewTrainer(net, cfg.Trainer)
	if err != nil {
		return nil, fmt.Errorf("lm: build trainer: %w", err)
	}
	if _, err := trainer.Fit(sessions, progress); err != nil {
		return nil, fmt.Errorf("lm: fit: %w", err)
	}
	return &Model{net: net}, nil
}

// New wraps an existing network as a model (used by tests and loading).
func New(net *nn.LanguageNetwork) *Model { return &Model{net: net} }

// Backend returns the scorer-registry tag of this model family.
func (m *Model) Backend() string { return BackendLSTM }

// VocabSize returns the action-vocabulary size of the model.
func (m *Model) VocabSize() int { return m.net.Config().InputSize }

// NewStream returns the model's scorer.Stream, an *nn.StreamState: its
// recurrent state and nothing else, so engine scoring stays
// allocation-free per action.
func (m *Model) NewStream() scorer.Stream { return m.net.NewStream() }

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error { return m.net.Save(w) }

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	net, err := nn.LoadLanguageNetwork(r)
	if err != nil {
		return nil, fmt.Errorf("lm: %w", err)
	}
	return &Model{net: net}, nil
}

// AdvanceBatch implements scorer.BatchStream: it advances N distinct
// session streams of this model by one action each with one fused
// batched step (one output GEMM + one recurrent GEMM for the whole
// batch), bit-identical to observing each stream serially. Safe for
// concurrent use by multiple shards; the streams themselves must be
// disjoint across concurrent calls. scorer.AdvanceBatch checks the
// lengths; every stream must be one this model's NewStream returned.
func (m *Model) AdvanceBatch(streams []scorer.Stream, actions []int, liks []float64) error {
	// Engine waves default to 64 streams, so the gather stays on the stack.
	var buf [64]*nn.StreamState
	ns := buf[:0]
	for i, st := range streams {
		s, ok := st.(*nn.StreamState)
		if !ok {
			return fmt.Errorf("lm: AdvanceBatch stream %d is a %T, not an LSTM stream", i, st)
		}
		ns = append(ns, s)
	}
	if err := m.net.ObserveBatch(ns, actions, liks); err != nil {
		return fmt.Errorf("lm: %w", err)
	}
	return nil
}
