package experiments

import (
	"fmt"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/logsim"
)

// AblationWeighted evaluates the paper's first future-work proposal: a
// weighted combination of all cluster models' likelihoods (weights =
// softmax of the OC-SVM scores) against the single routed model, on both
// real and random sessions.
func AblationWeighted(s *Setup) (*Result, error) {
	res := &Result{
		Name:  "ablation-weighted",
		Title: "Weighted multi-cluster scoring vs single routed model",
		Headers: []string{
			"test set", "routed likelihood", "weighted likelihood",
		},
	}
	real, _ := s.unitedTest()
	if len(real) > 100 {
		real = real[:100]
	}
	random, err := logsim.RandomSessions(s.Corpus.Vocabulary, len(real), 5, 25, s.Seed+888)
	if err != nil {
		return nil, err
	}
	realRouted, realWeighted, err := weightedPair(s, real)
	if err != nil {
		return nil, err
	}
	randRouted, randWeighted, err := weightedPair(s, random)
	if err != nil {
		return nil, err
	}
	res.AddRow("real", f(realRouted), f(realWeighted))
	res.AddRow("random", f(randRouted), f(randWeighted))
	sepRouted := safeRatio(realRouted, randRouted)
	sepWeighted := safeRatio(realWeighted, randWeighted)
	res.AddNote("real/random separation: routed %.1fx, weighted %.1fx", sepRouted, sepWeighted)
	return res, nil
}

func weightedPair(s *Setup, sessions []*actionlog.Session) (routed, weighted float64, err error) {
	n := 0
	for _, sess := range sessions {
		if sess.Len() < 2 {
			continue
		}
		rep, err := s.Detector.ScoreSession(sess)
		if err != nil {
			return 0, 0, err
		}
		w, err := s.Detector.ScoreWeighted(sess)
		if err != nil {
			return 0, 0, err
		}
		routed += rep.Score.AvgLikelihood
		weighted += w
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("experiments: no scorable sessions")
	}
	return routed / float64(n), weighted / float64(n), nil
}

// AblationTrend evaluates the second future-work proposal: trend-based
// alarms versus the plain likelihood floor, measured by alarms raised on
// normal test sessions (false alarms) and on misuse sessions (detections).
func AblationTrend(s *Setup) (*Result, error) {
	res := &Result{
		Name:  "ablation-trend",
		Title: "Alarm policies: likelihood floor vs trend detection",
		Headers: []string{
			"policy", "false-alarm sessions", "detected misuse sessions",
		},
	}
	normal, _ := s.unitedTest()
	if len(normal) > 60 {
		normal = normal[:60]
	}
	var misuse []*actionlog.Session
	for i := 0; i < 12; i++ {
		scen := []logsim.MisuseScenario{
			logsim.MisuseMassDeletion, logsim.MisuseAccountFactory, logsim.MisuseCredentialSweep,
		}[i%3]
		m, err := logsim.MisuseSession(scen, 5, s.Seed+int64(900+i))
		if err != nil {
			return nil, err
		}
		misuse = append(misuse, m)
	}

	floorOnly := core.DefaultMonitorConfig()
	floorOnly.TrendWindow = 0
	trendToo := core.DefaultMonitorConfig()

	for _, pol := range []struct {
		name string
		cfg  core.MonitorConfig
	}{
		{"floor-only", floorOnly},
		{"floor+trend", trendToo},
	} {
		falseAlarms, err := alarmedSessions(s, pol.cfg, normal)
		if err != nil {
			return nil, err
		}
		detections, err := alarmedSessions(s, pol.cfg, misuse)
		if err != nil {
			return nil, err
		}
		res.AddRow(pol.name,
			fmt.Sprintf("%d/%d", falseAlarms, len(normal)),
			fmt.Sprintf("%d/%d", detections, len(misuse)))
	}
	res.AddNote("trend alarms add sensitivity to gradual drops at some false-alarm cost (paper future work #2)")
	return res, nil
}

// alarmedSessions counts the sessions that raise at least one alarm
// under cfg, replayed through the engine.
func alarmedSessions(s *Setup, cfg core.MonitorConfig, sessions []*actionlog.Session) (int, error) {
	sums, err := s.Detector.ClassifySessions(cfg, sessions)
	if err != nil {
		return 0, err
	}
	alarmed := 0
	for _, sum := range sums {
		if sum.Unknown > 0 {
			return 0, fmt.Errorf("experiments: session %s: %d actions outside the model vocabulary", sum.SessionID, sum.Unknown)
		}
		if sum.Alarms > 0 {
			alarmed++
		}
	}
	return alarmed, nil
}

// AblationPerplexity evaluates the third future-work proposal: perplexity
// as the normality measure, compared with average likelihood and loss for
// separating real from random sessions.
func AblationPerplexity(s *Setup) (*Result, error) {
	res := &Result{
		Name:  "ablation-perplexity",
		Title: "Normality measures: likelihood vs loss vs perplexity",
		Headers: []string{
			"measure", "real", "random", "separation",
		},
	}
	real, _ := s.unitedTest()
	if len(real) > 100 {
		real = real[:100]
	}
	random, err := logsim.RandomSessions(s.Corpus.Vocabulary, len(real), 5, 25, s.Seed+999)
	if err != nil {
		return nil, err
	}
	realLike, realLoss, realPerp, err := scoreThroughPipeline(s, real)
	if err != nil {
		return nil, err
	}
	randLike, randLoss, randPerp, err := scoreThroughPipeline(s, random)
	if err != nil {
		return nil, err
	}
	res.AddRow("avg likelihood", f(realLike), f(randLike), fmt.Sprintf("%.1fx", safeRatio(realLike, randLike)))
	res.AddRow("avg loss", f(realLoss), f(randLoss), fmt.Sprintf("%.1fx", safeRatio(randLoss, realLoss)))
	res.AddRow("perplexity", f(realPerp), f(randPerp), fmt.Sprintf("%.1fx", safeRatio(randPerp, realPerp)))
	res.AddNote("perplexity amplifies the loss separation exponentially (paper future work #3)")
	return res, nil
}
