package experiments

import (
	"fmt"
	"math"

	"misusedetect/internal/scorer"
)

// Fig7 reproduces Figure 7, the online regime: the average likelihood of
// each next action over the united test set for the two realistic routing
// baselines — (1) the cluster model selected at every step by the maximal
// OC-SVM score and (2) the cluster model voted during the first 15
// actions. The paper observes stable likelihoods for the first ~100
// actions, decay with growing variance afterwards, and that first-15
// voting avoids the per-step router's instability.
func Fig7(s *Setup) (*Result, error) {
	res := &Result{
		Name:  "fig7",
		Title: "Online regime: average next-action likelihood per position",
		Headers: []string{
			"position", "sessions", "per-step routing", "first-15 voting",
		},
	}
	sessions, _ := s.unitedTest()
	maxPos := s.scaleP.maxPositions
	sumStep := make([]float64, maxPos)
	sumVote := make([]float64, maxPos)
	alive := make([]int, maxPos)
	clusters := s.Detector.Clusters()
	voteLen := s.Detector.Config().RouteVoteActions

	for _, sess := range sessions {
		encoded, err := s.Corpus.Vocabulary.Encode(sess)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig7 encode: %w", err)
		}
		limit := len(encoded)
		if limit > maxPos {
			limit = maxPos
		}
		// Advance one LM stream per cluster plus the routing features.
		streams := make([]scorer.Stream, len(clusters))
		var probs [][]float64
		for ci := range clusters {
			streams[ci] = clusters[ci].Model.NewStream()
		}
		probs = make([][]float64, len(clusters))
		feat := s.Detector.Featurizer().Stream()
		votes := make([]int, len(clusters))
		votedCluster := 0
		for t := 0; t < limit; t++ {
			a := encoded[t]
			x, err := feat.Observe(a)
			if err != nil {
				return nil, err
			}
			stepCluster, bestS := 0, math.Inf(-1)
			for ci := range clusters {
				sc, err := clusters[ci].Router.Score(x)
				if err != nil {
					return nil, err
				}
				if sc > bestS {
					stepCluster, bestS = ci, sc
				}
			}
			if t < voteLen {
				votes[stepCluster]++
				bestC, bestV := 0, -1
				for ci, v := range votes {
					if v > bestV {
						bestC, bestV = ci, v
					}
				}
				votedCluster = bestC
			}
			if t > 0 {
				sumStep[t] += probs[stepCluster][a]
				sumVote[t] += probs[votedCluster][a]
				alive[t]++
			}
			for ci := range clusters {
				_, next, err := streams[ci].Observe(a)
				if err != nil {
					return nil, err
				}
				probs[ci] = next
			}
		}
	}

	var earlyVote, earlyStep float64
	earlyN := 0
	step := plotStep(maxPos)
	for t := 1; t < maxPos; t += step {
		if alive[t] == 0 {
			continue
		}
		st := sumStep[t] / float64(alive[t])
		vt := sumVote[t] / float64(alive[t])
		if t <= voteLen {
			earlyStep += st
			earlyVote += vt
			earlyN++
		}
		res.AddRow(d(t+1), d(alive[t]), f(st), f(vt))
	}
	if earlyN > 0 {
		res.AddNote("early positions (<= vote window): per-step routing %.4f vs first-15 voting %.4f (paper: voting avoids the early drop)",
			earlyStep/float64(earlyN), earlyVote/float64(earlyN))
	}
	return res, nil
}
