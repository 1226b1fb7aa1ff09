// Package core assembles the paper's full pipeline (its Figure 2): topic
// modeling over historical sessions, expert-informed clustering, one
// OC-SVM and one LSTM language model per behavior cluster, cluster routing
// for new sessions, session normality scoring, and the online
// action-by-action monitoring regime with the paper's "first 15 actions"
// cluster vote. It also implements the paper's future-work extensions:
// weighted combination of cluster-model scores, trend-based alarms, and
// perplexity as a normality measure.
package core

import (
	"fmt"

	"misusedetect/internal/baseline"
	"misusedetect/internal/expert"
	"misusedetect/internal/lda"
	"misusedetect/internal/nn"
	"misusedetect/internal/ocsvm"
)

// Config parameterizes the whole pipeline.
type Config struct {
	// Ensemble configures the LDA runs feeding the visual interface.
	Ensemble lda.EnsembleConfig
	// Expert configures the (simulated) expert cluster selection.
	Expert expert.Options
	// OCSVM configures the per-cluster one-class SVMs.
	OCSVM ocsvm.Config
	// Backend selects the per-cluster sequence-model family, a tag of
	// the backends table: nn.BackendLSTM (the paper's model, the default
	// when empty), baseline.BackendNGram, or baseline.BackendHMM.
	Backend string
	// LM configures the per-cluster language models. Network.InputSize
	// is overwritten with the vocabulary size at training time.
	LM nn.Config
	// HMM configures the per-cluster HMMs when Backend is
	// baseline.BackendHMM.
	HMM baseline.HMMConfig
	// MinSessionLength filters out sessions too short to model (2 in
	// the paper).
	MinSessionLength int
	// RouteVoteActions is the online-regime cluster vote length (15 in
	// the paper, the average session length).
	RouteVoteActions int
	// Seed derives all component seeds.
	Seed int64
}

// PaperConfig returns the pipeline with the paper's published settings:
// 13 clusters, 256-unit LSTMs with dropout 0.4, minibatch 32, lr 0.001,
// first-15-actions routing vote.
func PaperConfig(vocab int, seed int64) Config {
	return Config{
		Ensemble:         lda.DefaultEnsembleConfig(seed),
		Expert:           expert.DefaultOptions(seed + 1),
		OCSVM:            ocsvm.DefaultConfig(seed + 2),
		Backend:          nn.BackendLSTM,
		LM:               nn.PaperConfig(vocab, seed+3),
		HMM:              baseline.DefaultHMMConfig(seed + 4),
		MinSessionLength: 2,
		RouteVoteActions: 15,
		Seed:             seed,
	}
}

// ScaledConfig shrinks the paper configuration for CPU-bound runs:
// smaller LSTMs, fewer epochs, fewer LDA sweeps; identical structure.
func ScaledConfig(vocab, clusters, hidden, epochs int, seed int64) Config {
	cfg := PaperConfig(vocab, seed)
	cfg.Expert.TargetClusters = clusters
	cfg.LM = nn.ScaledConfig(vocab, hidden, epochs, seed+3)
	cfg.Ensemble.Iterations = 60
	cfg.Ensemble.TopicCounts = []int{clusters, clusters + clusters/2 + 1}
	cfg.Ensemble.RunsPerCount = 1
	return cfg
}

// backend returns the configured backend tag, defaulting to the LSTM.
func (c *Config) backend() string {
	if c.Backend == "" {
		return backends[0].tag
	}
	return c.Backend
}

func (c *Config) validate() error {
	if c.MinSessionLength < 2 {
		return fmt.Errorf("core: MinSessionLength must be >= 2, got %d", c.MinSessionLength)
	}
	if c.RouteVoteActions < 1 {
		return fmt.Errorf("core: RouteVoteActions must be >= 1, got %d", c.RouteVoteActions)
	}
	if lookupBackend(c.backend()) == nil {
		return fmt.Errorf("core: unknown backend %q (want one of %s)", c.Backend, backendTags())
	}
	return nil
}
