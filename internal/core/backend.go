package core

import (
	"fmt"
	"io"
	"strings"

	"misusedetect/internal/baseline"
	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// backend is one per-cluster sequence-model family: its tag (the
// manifest's backend and the model envelope's), how a cluster trains
// one, and how a saved one loads. Config.validate, ClusterModel.train
// and decodeModel all read the backends table, so it is the one place
// that knows which backends exist.
type backend struct {
	tag string
	// train fits cluster ci's model on its encoded sessions over a
	// vocabulary of vocab actions; seeds are offset by ci so clusters
	// differ. progress, if set, observes LSTM epochs.
	train func(cfg *Config, vocab int, sessions [][]int, ci int, progress func(int, nn.EpochStats)) (scorer.Scorer, error)
	load  func(io.Reader) (scorer.Scorer, error)
}

// backends lists every backend; the first, the paper's LSTM, is the
// default when Config.Backend is empty.
var backends = [...]backend{
	{
		tag: nn.BackendLSTM,
		train: func(cfg *Config, vocab int, sessions [][]int, ci int, progress func(int, nn.EpochStats)) (scorer.Scorer, error) {
			lmCfg := cfg.LM
			lmCfg.Network.InputSize = vocab
			lmCfg.Network.Seed += int64(ci)
			lmCfg.Trainer.Seed += int64(ci)
			var cb func(nn.EpochStats)
			if progress != nil {
				cb = func(st nn.EpochStats) { progress(ci, st) }
			}
			return nn.Train(lmCfg, sessions, cb)
		},
		load: func(r io.Reader) (scorer.Scorer, error) { return nn.LoadLanguageNetwork(r) },
	},
	{
		tag: baseline.BackendNGram,
		train: func(_ *Config, vocab int, sessions [][]int, _ int, _ func(int, nn.EpochStats)) (scorer.Scorer, error) {
			return baseline.TrainNGram(sessions, vocab)
		},
		load: func(r io.Reader) (scorer.Scorer, error) { return baseline.LoadNGram(r) },
	},
	{
		tag: baseline.BackendHMM,
		train: func(cfg *Config, vocab int, sessions [][]int, ci int, _ func(int, nn.EpochStats)) (scorer.Scorer, error) {
			hCfg := cfg.HMM
			hCfg.Seed += int64(ci)
			return baseline.TrainHMM(sessions, vocab, hCfg)
		},
		load: func(r io.Reader) (scorer.Scorer, error) { return baseline.LoadHMM(r) },
	},
}

// lookupBackend returns the table entry for tag, or nil.
func lookupBackend(tag string) *backend {
	for i := range backends {
		if backends[i].tag == tag {
			return &backends[i]
		}
	}
	return nil
}

// backendTags lists the table's tags for error messages.
func backendTags() string {
	tags := make([]string, len(backends))
	for i := range backends {
		tags[i] = fmt.Sprintf("%q", backends[i].tag)
	}
	return strings.Join(tags, ", ")
}
