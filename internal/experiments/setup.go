// Package experiments regenerates every figure of the paper's evaluation
// section on the simulated corpus: the session-length distribution
// (Fig. 3), cluster-model diversity (Fig. 4), accuracy against the global
// and size-matched baselines (Fig. 5), OC-SVM score development per action
// (Fig. 6), the online regime (Fig. 7), normality estimation on real
// versus random sessions (Figs. 8-9), the appendix per-cluster loss and
// normality breakdowns (Figs. 10-12), and the top-20 most-suspicious
// session review of §IV-D, plus ablations for the paper's future-work
// proposals.
package experiments

import (
	"fmt"
	"sort"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/logsim"
	"misusedetect/internal/nn"
)

// Scale selects the compute budget of an experiment run. Shapes hold at
// every scale; `misusectl experiment` prints the scale before its
// tables, and testdata/experiments-test.golden.txt holds the test-scale
// tables.
type Scale int

// Scales.
const (
	// ScaleTest is sized for unit tests (seconds).
	ScaleTest Scale = iota + 1
	// ScaleDefault is the CLI default (minutes).
	ScaleDefault
	// ScalePaper uses the paper's full corpus and hyperparameters
	// (hours on one CPU).
	ScalePaper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleDefault:
		return "default"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale converts a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "test":
		return ScaleTest, nil
	case "default":
		return ScaleDefault, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want test|default|paper)", s)
	}
}

// params are the scale-dependent knobs.
type params struct {
	corpusDivisor int // paper corpus size / divisor
	hidden        int
	epochs        int
	learningRate  float64
	minSteps      int // optimizer-step floor so small clusters converge
	maxPositions  int // positions plotted in figs 6-7 (300 in the paper)
}

func (s Scale) params() (params, error) {
	switch s {
	case ScaleTest:
		return params{corpusDivisor: 12, hidden: 16, epochs: 4, learningRate: 0.01, minSteps: 60, maxPositions: 60}, nil
	case ScaleDefault:
		return params{corpusDivisor: 5, hidden: 48, epochs: 6, learningRate: 0.005, minSteps: 400, maxPositions: 300}, nil
	case ScalePaper:
		// The paper's published hyperparameters.
		return params{corpusDivisor: 1, hidden: 256, epochs: 10, learningRate: 0.001, minSteps: 4000, maxPositions: 300}, nil
	default:
		return params{}, fmt.Errorf("experiments: invalid scale %d", int(s))
	}
}

// Model returns the scale's sequence-model hyperparameters: the LSTM
// hidden size, the training epochs and the learning rate.
func (s Scale) Model() (hidden, epochs int, learningRate float64, err error) {
	p, err := s.params()
	return p.hidden, p.epochs, p.learningRate, err
}

// Setup is the shared state of all experiments: corpus, ground-truth
// clusters (ordered by ascending size like the paper's plots), per-cluster
// splits, the trained detector, and the baseline models.
type Setup struct {
	Scale  Scale
	Seed   int64
	Corpus *logsim.Corpus
	// Clusters holds the ground-truth cluster sessions ordered by
	// ascending size (the paper sorts clusters this way). Clusters too
	// small to split are merged into the largest cluster.
	Clusters [][]*actionlog.Session
	// Splits are the per-cluster 70/15/15 splits.
	Splits []actionlog.Split
	// Detector holds the per-cluster OC-SVMs and language models
	// trained on the cluster training splits.
	Detector *core.Detector
	// GlobalLM is the strong baseline: one model on all training data.
	GlobalLM *nn.LanguageNetwork
	// SubsetLMs are the weak baselines: for each cluster, a model
	// trained on an arbitrary training subset of the same size.
	SubsetLMs []*nn.LanguageNetwork

	cfg    core.Config
	scaleP params
}

// NewSetup generates the corpus, clusters it by ground truth, splits each
// cluster 70/15/15, and trains the detector. Baseline models are trained
// lazily by TrainBaselines because only Figures 5 and 10-12 need them.
func NewSetup(scale Scale, seed int64) (*Setup, error) {
	p, err := scale.params()
	if err != nil {
		return nil, err
	}
	corpus, err := logsim.Generate(logsim.ScaledConfig(seed, p.corpusDivisor))
	if err != nil {
		return nil, fmt.Errorf("experiments: generate corpus: %w", err)
	}
	clusters, err := core.GroundTruthClustering(corpus.Sessions, 2)
	if err != nil {
		return nil, fmt.Errorf("experiments: cluster corpus: %w", err)
	}
	clusters = mergeTinyClusters(clusters, 12)
	sort.Slice(clusters, func(i, j int) bool { return len(clusters[i]) < len(clusters[j]) })

	splits, err := actionlog.SplitByCluster(clusters, actionlog.PaperSplit, seed+100)
	if err != nil {
		return nil, fmt.Errorf("experiments: split clusters: %w", err)
	}

	cfg := core.ScaledConfig(corpus.Vocabulary.Size(), len(clusters), p.hidden, p.epochs, seed+200)
	cfg.LM.Trainer.LearningRate = p.learningRate
	cfg.LM.Trainer.MinOptimizerSteps = p.minSteps
	train := make([][]*actionlog.Session, len(splits))
	for i, sp := range splits {
		train[i] = sp.Train
	}
	det, err := core.TrainDetector(cfg, corpus.Vocabulary, train, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: train detector: %w", err)
	}
	return &Setup{
		Scale:    scale,
		Seed:     seed,
		Corpus:   corpus,
		Clusters: clusters,
		Splits:   splits,
		Detector: det,
		cfg:      cfg,
		scaleP:   p,
	}, nil
}

// mergeTinyClusters folds clusters with fewer than min sessions into the
// largest cluster so every remaining cluster survives a 70/15/15 split.
func mergeTinyClusters(clusters [][]*actionlog.Session, min int) [][]*actionlog.Session {
	largest := 0
	for i := range clusters {
		if len(clusters[i]) > len(clusters[largest]) {
			largest = i
		}
	}
	var out [][]*actionlog.Session
	var overflow []*actionlog.Session
	for i := range clusters {
		if i != largest && len(clusters[i]) < min {
			overflow = append(overflow, clusters[i]...)
			continue
		}
		out = append(out, clusters[i])
	}
	if len(overflow) > 0 {
		for i := range out {
			if len(out[i]) > 0 && out[i][0].Cluster == clusters[largest][0].Cluster {
				out[i] = append(append([]*actionlog.Session(nil), out[i]...), overflow...)
				break
			}
		}
	}
	return out
}

// TrainBaselines fits the global model and the per-cluster size-matched
// subset models (paper §IV-B baselines). It is idempotent.
func (s *Setup) TrainBaselines() error {
	if s.GlobalLM != nil && len(s.SubsetLMs) == len(s.Clusters) {
		return nil
	}
	var allTrain []*actionlog.Session
	for _, sp := range s.Splits {
		allTrain = append(allTrain, sp.Train...)
	}
	encodedAll, err := s.Corpus.Vocabulary.EncodeAll(actionlog.FilterMinLength(allTrain, 2))
	if err != nil {
		return fmt.Errorf("experiments: encode global train set: %w", err)
	}
	lmCfg := s.cfg.LM
	lmCfg.Network.InputSize = s.Corpus.Vocabulary.Size()
	// Job 0 is the global model, job 1+ci cluster ci's subset model.
	// Each job has its own seed, so they train in parallel (through
	// core.LargestFirst) without moving a bit.
	sets := [][][]int{encodedAll}
	cfgs := []nn.Config{lmCfg}
	for ci := range s.Clusters {
		size := len(s.Splits[ci].Train)
		if size > len(encodedAll) {
			size = len(encodedAll)
		}
		// Arbitrary subset: a deterministic rotation of the global
		// training data, distinct per cluster.
		subset := make([][]int, 0, size)
		offset := (ci * 997) % len(encodedAll)
		for k := 0; k < size; k++ {
			subset = append(subset, encodedAll[(offset+k)%len(encodedAll)])
		}
		subCfg := lmCfg
		subCfg.Network.Seed += int64(1000 + ci)
		subCfg.Trainer.Seed += int64(1000 + ci)
		sets = append(sets, subset)
		cfgs = append(cfgs, subCfg)
	}
	sizes := make([]int, len(sets))
	for j, set := range sets {
		for _, enc := range set {
			sizes[j] += len(enc)
		}
	}
	models := make([]*nn.LanguageNetwork, len(sets))
	if err := core.LargestFirst(sizes, func(j int) error {
		m, err := nn.Train(cfgs[j], sets[j], nil)
		switch {
		case err != nil && j == 0:
			return fmt.Errorf("experiments: train global model: %w", err)
		case err != nil:
			return fmt.Errorf("experiments: train subset model %d: %w", j-1, err)
		}
		models[j] = m
		return nil
	}); err != nil {
		return err
	}
	s.GlobalLM, s.SubsetLMs = models[0], models[1:]
	return nil
}

// encodeTest returns the encoded test sessions of cluster ci.
func (s *Setup) encodeTest(ci int) ([][]int, error) {
	test := actionlog.FilterMinLength(s.Splits[ci].Test, 2)
	enc, err := s.Corpus.Vocabulary.EncodeAll(test)
	if err != nil {
		return nil, fmt.Errorf("experiments: encode test set %d: %w", ci, err)
	}
	return enc, nil
}

// unitedTest returns all clusters' test sessions with their (ascending
// size order) cluster labels.
func (s *Setup) unitedTest() ([]*actionlog.Session, []int) {
	var sessions []*actionlog.Session
	var labels []int
	for ci, sp := range s.Splits {
		for _, sess := range actionlog.FilterMinLength(sp.Test, 2) {
			sessions = append(sessions, sess)
			labels = append(labels, ci)
		}
	}
	return sessions, labels
}
