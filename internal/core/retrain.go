package core

import (
	"fmt"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/ocsvm"
	"misusedetect/internal/scorer"
)

// RetrainStats reports what a retrain did per cluster.
type RetrainStats struct {
	// Retrained lists the clusters refit on fresh live sessions.
	Retrained []int `json:"retrained"`
	// Reused lists the clusters that kept the old generation's models
	// verbatim (possible only when vocabulary and backend are
	// unchanged).
	Reused []int `json:"reused,omitempty"`
	// Distilled lists the clusters refit on sessions sampled from their
	// own stale model: starved clusters under a grown vocabulary carry
	// the old generation's knowledge over by ancestral sampling
	// (scorer.Sample) instead of blocking the adaptation.
	Distilled []int `json:"distilled,omitempty"`
}

// distillSessions is how many synthetic sessions a distilled cluster is
// refit on, and their length range.
const (
	distillSessions = 32
	distillMinLen   = 6
	distillMaxLen   = 24
)

// EncodedSession is one retraining session already expressed as indices
// into the retrain vocabulary: what the adaptation pipeline produces by
// remapping recorded session tokens through an interner snapshot, so the
// retrain path never re-interns action strings.
type EncodedSession struct {
	ID      string
	Actions []int
}

// RetrainDetector fits a successor to old on fresh per-cluster training
// sessions: the training half of the online adaptation loop. clusterTrain
// must have one group per existing cluster (the grouping key is the
// routed cluster of the buffered live sessions). Clusters with at least
// minPerCluster trainable sessions are retrained — router and sequence
// model both — on the fresh data. Starved clusters keep the old
// generation's models when they are still compatible (same vocabulary
// and backend); when the vocabulary grew or the backend
// changed, they are refit on sessions sampled from their own stale model
// instead (distillation), so one quiet behavior cluster never blocks
// adapting the busy ones.
//
// The sessions arrive encoded through vocab: the adaptation pipeline
// records live sessions as interner tokens and remaps them to the
// (grown) retrain vocabulary through one table per interner snapshot,
// so the per-action cost between serving and retraining is integer
// indexing — no string map lookups anywhere past the wire edge. The
// vocabulary must equal the old detector's or be a superset of it
// (vocabulary drift absorbed by retraining).
func RetrainDetector(old *Detector, cfg Config, vocab *actionlog.Vocabulary, clusterTrain [][]EncodedSession, minPerCluster int) (*Detector, RetrainStats, error) {
	var stats RetrainStats
	if old == nil {
		return nil, stats, fmt.Errorf("core: retrain: nil detector")
	}
	if err := cfg.validate(); err != nil {
		return nil, stats, err
	}
	if len(clusterTrain) != len(old.clusters) {
		return nil, stats, fmt.Errorf("core: retrain: %d session groups for %d clusters", len(clusterTrain), len(old.clusters))
	}
	cfg.Backend = cfg.backend()
	sameVocab := vocabEqual(vocab, old.vocab)
	if !sameVocab && !vocabSuperset(vocab, old.vocab) {
		return nil, stats, fmt.Errorf("core: retrain: vocabulary is not a superset of the old vocabulary (%d vs %d actions)",
			vocab.Size(), old.vocab.Size())
	}
	// Stale-model reuse needs index- and format-compatible clusters:
	// identical vocabulary and backend tag (the saved manifest records
	// one backend for the whole detector).
	reusable := sameVocab && cfg.Backend == old.Backend()
	feat := old.featurizer
	if !sameVocab {
		var err error
		if feat, err = ocsvm.NewFeaturizer(vocab.Size()); err != nil {
			return nil, stats, fmt.Errorf("core: retrain: build featurizer: %w", err)
		}
	}
	if minPerCluster < 1 {
		minPerCluster = 1
	}
	// Sort the clusters into retrained, reused and distilled first:
	// trainable[ci] stays set only for a retrained cluster, and a
	// distilled one's slot stays empty. The training then runs in
	// parallel through LargestFirst, each job writing its own slot, so
	// the stats stay in cluster order and the error returned is the
	// lowest-index cluster's.
	clusters := make([]ClusterModel, len(clusterTrain))
	trainable := make([][][]int, len(clusterTrain))
	sizes := make([]int, len(clusterTrain))
	for ci, sessions := range clusterTrain {
		for _, s := range sessions {
			if len(s.Actions) >= cfg.MinSessionLength {
				trainable[ci] = append(trainable[ci], s.Actions)
				sizes[ci] += len(s.Actions)
			}
		}
		switch {
		case len(trainable[ci]) >= minPerCluster:
			stats.Retrained = append(stats.Retrained, ci)
		case reusable:
			// Keep the old generation's models for this cluster:
			// ClusterModel is immutable after training, so sharing it
			// across detectors is safe.
			clusters[ci], trainable[ci], sizes[ci] = old.clusters[ci], nil, 0
			stats.Reused = append(stats.Reused, ci)
		default:
			trainable[ci] = nil
			sizes[ci] = distillSessions * (distillMinLen + distillMaxLen) / 2
			stats.Distilled = append(stats.Distilled, ci)
		}
	}
	if len(stats.Retrained) == 0 {
		return nil, stats, fmt.Errorf("core: retrain: no cluster reached %d trainable sessions", minPerCluster)
	}
	if err := LargestFirst(sizes, func(ci int) error {
		var err error
		switch {
		case trainable[ci] != nil:
			if clusters[ci], err = trainClusterEncoded(&cfg, vocab, feat, trainable[ci], ci, nil); err != nil {
				return fmt.Errorf("core: retrain: %w", err)
			}
		case clusters[ci].Model == nil:
			clusters[ci], err = distillCluster(&cfg, old, vocab, feat, ci)
		}
		return err
	}); err != nil {
		return nil, stats, err
	}
	d, err := newDetector(cfg, vocab, feat, clusters)
	if err != nil {
		return nil, stats, fmt.Errorf("core: retrain: %w", err)
	}
	return d, stats, nil
}

// distillCluster refits one cluster on sessions sampled from its own
// stale sequence model, re-encoded through the new vocabulary: the old
// generation's knowledge of the behavior survives a vocabulary or
// backend change without fresh traffic.
func distillCluster(cfg *Config, old *Detector, vocab *actionlog.Vocabulary, feat *ocsvm.Featurizer, ci int) (ClusterModel, error) {
	sampled, err := scorer.Sample(old.clusters[ci].Model, distillSessions, distillMinLen, distillMaxLen, cfg.Seed+int64(ci))
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: retrain: distill cluster %d: %w", ci, err)
	}
	sessions := make([]*actionlog.Session, len(sampled))
	for i, seq := range sampled {
		actions, err := old.vocab.Decode(seq)
		if err != nil {
			return ClusterModel{}, fmt.Errorf("core: retrain: distill cluster %d: %w", ci, err)
		}
		sessions[i] = &actionlog.Session{
			ID:      fmt.Sprintf("distill-%02d-%03d", ci, i),
			Actions: actions,
			Cluster: ci,
		}
	}
	cm, err := trainCluster(cfg, vocab, feat, sessions, ci, nil)
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: retrain: distill cluster %d: %w", ci, err)
	}
	// TrainSize of fresh-data clusters counts live sessions; distilled
	// clusters report the stale generation's count, not the sample size.
	cm.TrainSize = old.clusters[ci].TrainSize
	return cm, nil
}

// vocabEqual reports whether the two vocabularies list identical actions
// in identical order (index compatibility, not just set equality).
func vocabEqual(a, b *actionlog.Vocabulary) bool {
	if a.Size() != b.Size() {
		return false
	}
	aa, ba := a.Actions(), b.Actions()
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	return true
}

// vocabSuperset reports whether every action of old exists in vocab.
// Index compatibility is not required: retrained models encode through
// the new vocabulary from scratch.
func vocabSuperset(vocab, old *actionlog.Vocabulary) bool {
	for _, a := range old.Actions() {
		if !vocab.Contains(a) {
			return false
		}
	}
	return true
}
