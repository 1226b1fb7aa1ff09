// Package lm wraps the neural network of package nn into the LSTM-based
// language model over action sequences used by the paper: training on the
// sessions of one behavior cluster, next-action prediction, and the three
// normality measures discussed in the paper — average likelihood of the
// observed actions, average cross-entropy loss (following Kim et al.), and
// perplexity (listed as future work, implemented here as an extension).
package lm

import (
	"fmt"
	"io"
	"math"
	"sync"

	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

// BackendLSTM is the scorer-registry tag of the LSTM language model.
const BackendLSTM = "lstm"

// Model is a scorer.Scorer: the serving stack in internal/core scores
// any backend through that interface, the LSTM being the default. The
// stream assertion pins the seam from this side, so nn never has to
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
	// batchPool recycles the packed-matrix scratch of AdvanceBatch: one
	// model generation is served by several engine shards concurrently,
	// so the transient buffers cannot hang off the (shared) network.
	batchPool sync.Pool
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

// NewStream returns the model's scorer.Stream: the preallocated-scratch
// variant, so engine scoring stays allocation-free per action.
func (m *Model) NewStream() scorer.Stream { return m.StreamPrealloc() }

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

// StepScores returns, for positions 1..n-1 of the session, the probability
// the model assigned to the action that actually occurred. Position 0 has
// no context and is excluded, matching the paper's "no observed and
// predicted part" rule.
func (m *Model) StepScores(session []int) (tensor.Vector, error) {
	if len(session) < 2 {
		return nil, fmt.Errorf("lm: session must have >= 2 actions, got %d", len(session))
	}
	probs, err := m.net.ForwardAll(session[:len(session)-1])
	if err != nil {
		return nil, fmt.Errorf("lm: score session: %w", err)
	}
	out := tensor.NewVector(len(session) - 1)
	for i := range out {
		a := session[i+1]
		if a < 0 || a >= m.VocabSize() {
			return nil, fmt.Errorf("lm: session position %d action %d outside vocab", i+1, a)
		}
		out[i] = probs[i][a]
	}
	return out, nil
}

// Score is the paper's set of session-level normality measures: the
// average likelihood of the observed actions (the paper's primary
// measure), Kim et al.'s average cross-entropy loss, perplexity (the
// paper's future-work measure), and argmax accuracy. It is the shared
// scorer.Score, so every backend reports in the same units.
type Score = scorer.Score

// ScoreSession computes all normality measures for one session.
func (m *Model) ScoreSession(session []int) (Score, error) {
	if len(session) < 2 {
		return Score{}, fmt.Errorf("lm: session must have >= 2 actions, got %d", len(session))
	}
	probs, err := m.net.ForwardAll(session[:len(session)-1])
	if err != nil {
		return Score{}, fmt.Errorf("lm: score session: %w", err)
	}
	var likeSum, lossSum float64
	correct := 0
	steps := len(session) - 1
	for i := 0; i < steps; i++ {
		a := session[i+1]
		if a < 0 || a >= m.VocabSize() {
			return Score{}, fmt.Errorf("lm: session position %d action %d outside vocab", i+1, a)
		}
		p := probs[i][a]
		likeSum += p
		pl := p
		if pl < 1e-300 {
			pl = 1e-300
		}
		lossSum += -math.Log(pl)
		if probs[i].ArgMax() == a {
			correct++
		}
	}
	avgLoss := lossSum / float64(steps)
	return Score{
		AvgLikelihood: likeSum / float64(steps),
		AvgLoss:       avgLoss,
		Perplexity:    math.Exp(avgLoss),
		Accuracy:      float64(correct) / float64(steps),
		Steps:         steps,
	}, nil
}

// ScoreCorpus averages the session scores over a corpus, weighting every
// session equally (the paper averages per-session scores).
func (m *Model) ScoreCorpus(sessions [][]int) (Score, error) {
	var agg Score
	n := 0
	for _, s := range sessions {
		if len(s) < 2 {
			continue
		}
		sc, err := m.ScoreSession(s)
		if err != nil {
			return Score{}, err
		}
		agg.AvgLikelihood += sc.AvgLikelihood
		agg.AvgLoss += sc.AvgLoss
		agg.Accuracy += sc.Accuracy
		agg.Steps += sc.Steps
		n++
	}
	if n == 0 {
		return Score{}, fmt.Errorf("lm: no scorable sessions")
	}
	agg.AvgLikelihood /= float64(n)
	agg.AvgLoss /= float64(n)
	agg.Accuracy /= float64(n)
	agg.Perplexity = math.Exp(agg.AvgLoss)
	return agg, nil
}

// CorpusAccuracy computes the pooled per-action accuracy over all
// positions of all sessions (every predicted action counts equally),
// which is the metric of the paper's Figures 4 and 5.
func (m *Model) CorpusAccuracy(sessions [][]int) (float64, error) {
	correct, total := 0, 0
	for _, s := range sessions {
		if len(s) < 2 {
			continue
		}
		probs, err := m.net.ForwardAll(s[:len(s)-1])
		if err != nil {
			return 0, err
		}
		for i := 0; i+1 < len(s); i++ {
			a := s[i+1]
			if a < 0 || a >= m.VocabSize() {
				return 0, fmt.Errorf("lm: action %d outside vocab", a)
			}
			if probs[i].ArgMax() == a {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("lm: no scorable sessions")
	}
	return float64(correct) / float64(total), nil
}

// CorpusLoss computes the pooled per-action cross-entropy, the metric of
// the paper's Figure 10.
func (m *Model) CorpusLoss(sessions [][]int) (float64, error) {
	var lossSum float64
	total := 0
	for _, s := range sessions {
		if len(s) < 2 {
			continue
		}
		scores, err := m.StepScores(s)
		if err != nil {
			return 0, err
		}
		for _, p := range scores {
			if p < 1e-300 {
				p = 1e-300
			}
			lossSum += -math.Log(p)
			total++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("lm: no scorable sessions")
	}
	return lossSum / float64(total), nil
}

// advanceScratch bundles the reusable buffers of one AdvanceBatch call.
type advanceScratch struct {
	scratch *nn.BatchScratch
	streams []*nn.StreamState
}

// AdvanceBatch implements scorer.BatchStream: it advances N distinct
// session streams of this model by one action each with one fused
// batched step (one recurrent GEMM + one output GEMM for the whole
// batch), bit-identical to observing each stream serially. Safe for
// concurrent use by multiple shards; the streams themselves must be
// disjoint across concurrent calls.
func (m *Model) AdvanceBatch(streams []scorer.Stream, actions []int, liks []float64) error {
	if len(streams) != len(actions) || len(streams) != len(liks) {
		return fmt.Errorf("lm: AdvanceBatch length mismatch streams=%d actions=%d liks=%d",
			len(streams), len(actions), len(liks))
	}
	sc, _ := m.batchPool.Get().(*advanceScratch)
	if sc == nil {
		sc = &advanceScratch{scratch: nn.NewBatchScratch()}
	}
	defer m.batchPool.Put(sc)
	sc.streams = sc.streams[:0]
	for _, st := range streams {
		ns, ok := st.(*nn.StreamState)
		if !ok {
			// A wrapped or foreign stream type cannot be packed; advance
			// the whole batch serially instead.
			for i, st := range streams {
				lik, err := scorer.ObserveLikelihood(st, actions[i])
				if err != nil {
					return err
				}
				liks[i] = lik
			}
			return nil
		}
		sc.streams = append(sc.streams, ns)
	}
	if err := m.net.ObserveBatch(sc.streams, actions, liks, sc.scratch); err != nil {
		return fmt.Errorf("lm: %w", err)
	}
	return nil
}

// Stream returns an incremental per-action scorer for the online regime.
func (m *Model) Stream() *nn.StreamState { return m.net.NewStream() }

// StreamPrealloc returns an incremental scorer backed by preallocated
// scratch buffers: steady-state scoring performs no per-action
// allocations, at the cost that the distribution returned by Observe is
// only valid until the next Observe. This is the variant the concurrent
// scoring engine uses, where per-action garbage would dominate.
func (m *Model) StreamPrealloc() *nn.StreamState { return m.net.NewStreamPrealloc() }
