package experiments

import (
	"fmt"

	"misusedetect/internal/scorer"
)

// Fig4 reproduces Figure 4: each cluster model's accuracy on its own test
// set against the same model's average accuracy over every other
// cluster's test set, clusters ordered by ascending size. The paper's
// findings: larger clusters produce stronger models, even the smallest
// cluster (177 sessions) learns the task, and every model is best on its
// own cluster — the models are diverse.
func Fig4(s *Setup) (*Result, error) {
	res := &Result{
		Name:  "fig4",
		Title: "Cluster-model accuracy: own test set vs average of other test sets",
		Headers: []string{
			"cluster", "train size", "own accuracy", "others avg accuracy",
		},
	}
	encoded := make([][][]int, len(s.Clusters))
	for ci := range s.Clusters {
		enc, err := s.encodeTest(ci)
		if err != nil {
			return nil, err
		}
		encoded[ci] = enc
	}
	clusters := s.Detector.Clusters()
	ownBeatsOthers := 0
	for ci := range clusters {
		own, err := scorer.ScoreCorpus(clusters[ci].Model, encoded[ci])
		if err != nil {
			return nil, fmt.Errorf("experiments: fig4 own accuracy %d: %w", ci, err)
		}
		var otherSum float64
		others := 0
		for cj := range clusters {
			if cj == ci || len(encoded[cj]) == 0 {
				continue
			}
			cross, err := scorer.ScoreCorpus(clusters[ci].Model, encoded[cj])
			if err != nil {
				return nil, fmt.Errorf("experiments: fig4 cross accuracy %d->%d: %w", ci, cj, err)
			}
			otherSum += cross.Accuracy
			others++
		}
		otherAvg := 0.0
		if others > 0 {
			otherAvg = otherSum / float64(others)
		}
		if own.Accuracy > otherAvg {
			ownBeatsOthers++
		}
		res.AddRow(d(ci), d(clusters[ci].TrainSize), f(own.Accuracy), f(otherAvg))
	}
	res.AddNote("clusters where own accuracy > cross-cluster average: %d/%d (paper: all; models are diverse)",
		ownBeatsOthers, len(clusters))
	return res, nil
}
