package experiments

import (
	"fmt"

	"misusedetect/internal/scorer"
)

// Fig10 reproduces the appendix Figure 10: per-cluster test loss of the
// cluster model against the global model and the size-matched subset
// model, clusters in ascending size order. It is the loss-space view of
// Figure 5 and follows the same pattern.
func Fig10(s *Setup) (*Result, error) {
	if err := s.TrainBaselines(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:  "fig10",
		Title: "Loss: cluster model vs global model vs size-matched subset model",
		Headers: []string{
			"cluster", "train size", "cluster model", "global model", "subset model",
		},
	}
	clusters := s.Detector.Clusters()
	clusterBeatsSubset := 0
	for ci := range clusters {
		enc, err := s.encodeTest(ci)
		if err != nil {
			return nil, err
		}
		own, err := scorer.ScoreCorpus(clusters[ci].Model, enc)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10 cluster %d: %w", ci, err)
		}
		global, err := scorer.ScoreCorpus(s.GlobalLM, enc)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10 global on %d: %w", ci, err)
		}
		subset, err := scorer.ScoreCorpus(s.SubsetLMs[ci], enc)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10 subset on %d: %w", ci, err)
		}
		if own.AvgLoss < subset.AvgLoss {
			clusterBeatsSubset++
		}
		res.AddRow(d(ci), d(clusters[ci].TrainSize), f(own.AvgLoss), f(global.AvgLoss), f(subset.AvgLoss))
	}
	res.AddNote("cluster model beats size-matched subset model (lower loss) on %d/%d clusters (paper: same pattern as accuracy)",
		clusterBeatsSubset, len(clusters))
	return res, nil
}
