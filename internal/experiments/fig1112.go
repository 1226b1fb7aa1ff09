package experiments

import (
	"fmt"

	"misusedetect/internal/scorer"
)

// Fig1112 reproduces the appendix Figures 11 and 12: per-cluster
// normality estimation (average likelihood and average loss) of the test
// sessions under four baselines — the known-cluster model, the OC-SVM
// per-session routed model, the first-15-vote routed model, and the
// global model. The paper observes higher normality for larger clusters
// and that first-action routing avoids the OC-SVM length peculiarity.
func Fig1112(s *Setup) (*Result, error) {
	if err := s.TrainBaselines(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:  "fig11-12",
		Title: "Per-cluster normality: known cluster vs routed vs voted vs global",
		Headers: []string{
			"cluster", "metric", "known", "ocsvm-routed", "first-15-voted", "global",
		},
	}
	clusters := s.Detector.Clusters()
	routingAgrees := 0
	total := 0
	for ci := range clusters {
		enc, err := s.encodeTest(ci)
		if err != nil {
			return nil, err
		}
		if len(enc) == 0 {
			continue
		}
		var known, routed, voted, global aggScore
		for _, e := range enc {
			if len(e) < 2 {
				continue
			}
			kSc, err := scorer.ScoreStream(clusters[ci].Model, e)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig11 known %d: %w", ci, err)
			}
			rCluster, _, err := s.Detector.Route(e)
			if err != nil {
				return nil, err
			}
			rSc, err := scorer.ScoreStream(clusters[rCluster].Model, e)
			if err != nil {
				return nil, err
			}
			vCluster, err := s.Detector.RouteByVote(e)
			if err != nil {
				return nil, err
			}
			vSc, err := scorer.ScoreStream(clusters[vCluster].Model, e)
			if err != nil {
				return nil, err
			}
			gSc, err := scorer.ScoreStream(s.GlobalLM, e)
			if err != nil {
				return nil, err
			}
			known.add(kSc)
			routed.add(rSc)
			voted.add(vSc)
			global.add(gSc)
			if vCluster == ci {
				routingAgrees++
			}
			total++
		}
		if known.n == 0 {
			continue
		}
		res.AddRow(d(ci), "likelihood", f(known.like()), f(routed.like()), f(voted.like()), f(global.like()))
		res.AddRow(d(ci), "loss", f(known.loss()), f(routed.loss()), f(voted.loss()), f(global.loss()))
	}
	if total > 0 {
		res.AddNote("first-15 vote recovers the true cluster for %.0f%% of test sessions (paper: cluster identification performs sufficiently well)",
			100*float64(routingAgrees)/float64(total))
	}
	return res, nil
}

// aggScore accumulates per-session score averages.
type aggScore struct {
	likeSum, lossSum float64
	n                int
}

func (a *aggScore) add(sc scorer.Score) {
	a.likeSum += sc.AvgLikelihood
	a.lossSum += sc.AvgLoss
	a.n++
}

func (a *aggScore) like() float64 {
	if a.n == 0 {
		return 0
	}
	return a.likeSum / float64(a.n)
}

func (a *aggScore) loss() float64 {
	if a.n == 0 {
		return 0
	}
	return a.lossSum / float64(a.n)
}
