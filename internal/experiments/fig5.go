package experiments

import (
	"fmt"

	"misusedetect/internal/scorer"
)

// Fig5 reproduces Figure 5: per-cluster test accuracy of the cluster
// model against (a) the global model trained on the whole dataset and (b)
// a global model trained on an arbitrary subset of the same size as the
// cluster dataset. The paper's findings: the size-matched arbitrary
// subset cannot compete (informed clustering matters), and cluster models
// catch up with or beat the strong global baseline once the cluster is
// large enough.
func Fig5(s *Setup) (*Result, error) {
	if err := s.TrainBaselines(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:  "fig5",
		Title: "Accuracy: cluster model vs global model vs size-matched subset model",
		Headers: []string{
			"cluster", "train size", "cluster model", "global model", "subset model",
		},
	}
	clusters := s.Detector.Clusters()
	clusterBeatsSubset := 0
	clusterBeatsGlobalLargest := false
	for ci := range clusters {
		enc, err := s.encodeTest(ci)
		if err != nil {
			return nil, err
		}
		own, err := scorer.ScoreCorpus(clusters[ci].Model, enc)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 cluster %d: %w", ci, err)
		}
		global, err := scorer.ScoreCorpus(s.GlobalLM, enc)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 global on %d: %w", ci, err)
		}
		subset, err := scorer.ScoreCorpus(s.SubsetLMs[ci], enc)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 subset on %d: %w", ci, err)
		}
		if own.Accuracy > subset.Accuracy {
			clusterBeatsSubset++
		}
		if ci == len(clusters)-1 && own.Accuracy >= global.Accuracy {
			clusterBeatsGlobalLargest = true
		}
		res.AddRow(d(ci), d(clusters[ci].TrainSize), f(own.Accuracy), f(global.Accuracy), f(subset.Accuracy))
	}
	res.AddNote("cluster model beats size-matched subset model on %d/%d clusters (paper: informed clustering is extremely important)",
		clusterBeatsSubset, len(clusters))
	res.AddNote("largest cluster model >= global model: %v (paper: as good or even better once size is sufficient)",
		clusterBeatsGlobalLargest)
	return res, nil
}
