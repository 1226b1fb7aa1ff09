package core

import (
	"fmt"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/expert"
	"misusedetect/internal/lda"
)

// Clustering is the outcome of the pipeline's training-phase clustering:
// the fitted LDA ensemble, the expert topic-group selection, and the
// partition of the history into behavior clusters.
type Clustering struct {
	// Ensemble is the fitted LDA ensemble (input to the visual
	// interface).
	Ensemble *lda.Ensemble
	// Selection is the (simulated) expert's topic-group selection.
	Selection *expert.Selection
	// Sessions echoes the filtered history the clustering covers, in
	// assignment order.
	Sessions []*actionlog.Session
}

// ClusterHistory performs the informed-clustering half of the pipeline on
// historical normal-behavior sessions: filter short sessions, encode, fit
// the LDA ensemble, and run the expert selection. The returned Clustering
// partitions exactly the filtered sessions.
func ClusterHistory(cfg Config, vocab *actionlog.Vocabulary, history []*actionlog.Session) (*Clustering, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	filtered := actionlog.FilterMinLength(history, cfg.MinSessionLength)
	if len(filtered) == 0 {
		return nil, fmt.Errorf("core: no sessions of length >= %d", cfg.MinSessionLength)
	}
	docs, err := vocab.EncodeAll(filtered)
	if err != nil {
		return nil, fmt.Errorf("core: encode history: %w", err)
	}
	ens, err := lda.FitEnsemble(docs, vocab.Size(), cfg.Ensemble)
	if err != nil {
		return nil, fmt.Errorf("core: fit LDA ensemble: %w", err)
	}
	sel, err := expert.Select(ens, cfg.Expert)
	if err != nil {
		return nil, fmt.Errorf("core: expert selection: %w", err)
	}
	return &Clustering{Ensemble: ens, Selection: sel, Sessions: filtered}, nil
}

// Partition returns the sessions of each cluster.
func (c *Clustering) Partition() ([][]*actionlog.Session, error) {
	parts, err := expert.Partition(c.Selection, c.Sessions)
	if err != nil {
		return nil, fmt.Errorf("core: partition history: %w", err)
	}
	return parts, nil
}

// GroundTruthClustering builds a Clustering-equivalent partition from the
// sessions' ground-truth cluster labels (available for simulated corpora).
// Experiments use it to isolate modeling quality from clustering quality,
// mirroring the paper's "we know the cluster of each session" setting.
func GroundTruthClustering(history []*actionlog.Session, minLength int) ([][]*actionlog.Session, error) {
	filtered := actionlog.FilterMinLength(history, minLength)
	if len(filtered) == 0 {
		return nil, fmt.Errorf("core: no sessions of length >= %d", minLength)
	}
	maxCluster := -1
	for _, s := range filtered {
		if s.Cluster < 0 {
			return nil, fmt.Errorf("core: session %s has no ground-truth cluster", s.ID)
		}
		if s.Cluster > maxCluster {
			maxCluster = s.Cluster
		}
	}
	out := make([][]*actionlog.Session, maxCluster+1)
	for _, s := range filtered {
		out[s.Cluster] = append(out[s.Cluster], s)
	}
	return out, nil
}
