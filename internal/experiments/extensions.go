package experiments

import (
	"fmt"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/logsim"
	"misusedetect/internal/metrics"
	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// ExtensionAUC quantifies what the paper validates qualitatively: how
// well each scorer's session normality separates known-normal test
// sessions from (a) random sessions and (b) scripted misuse, measured by
// ROC AUC and the true-positive rate at a 5% false-alarm budget. Scorers:
// the paper's routed per-cluster LSTMs, the global LSTM, an interpolated
// trigram, a discrete HMM, and the handcrafted-feature detector.
func ExtensionAUC(s *Setup) (*Result, error) {
	if err := s.TrainBaselines(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:  "extension-auc",
		Title: "Detection quality: ROC AUC and TPR at 5% FPR per scorer",
		Headers: []string{
			"scorer", "anomaly set", "AUC", "TPR@5%FPR",
		},
	}
	vocab := s.Corpus.Vocabulary
	real, _ := s.unitedTest()
	if len(real) > 150 {
		real = real[:150]
	}
	random, err := logsim.RandomSessions(vocab, len(real), 5, 25, s.Seed+1234)
	if err != nil {
		return nil, err
	}
	var misuse []*actionlog.Session
	for i := 0; i < 30; i++ {
		scen := []logsim.MisuseScenario{
			logsim.MisuseMassDeletion, logsim.MisuseAccountFactory, logsim.MisuseCredentialSweep,
		}[i%3]
		m, err := logsim.MisuseSession(scen, 4+i%4, s.Seed+int64(2000+i))
		if err != nil {
			return nil, err
		}
		misuse = append(misuse, m)
	}

	// Train the classical baselines on the united training data.
	var train []*actionlog.Session
	for _, sp := range s.Splits {
		train = append(train, sp.Train...)
	}
	encTrain, err := vocab.EncodeAll(actionlog.FilterMinLength(train, 2))
	if err != nil {
		return nil, err
	}
	ngram, err := baseline.TrainNGram(encTrain, vocab.Size())
	if err != nil {
		return nil, err
	}
	hmmCfg := baseline.DefaultHMMConfig(s.Seed + 31)
	hmmCfg.Iterations = 8
	hmm, err := baseline.TrainHMM(encTrain, vocab.Size(), hmmCfg)
	if err != nil {
		return nil, err
	}
	hand, err := baseline.TrainHandcrafted(encTrain, vocab.Size())
	if err != nil {
		return nil, err
	}

	// avgLikelihood scores a session's average likelihood under one
	// sequence model.
	avgLikelihood := func(m scorer.Scorer) func(*actionlog.Session) (float64, error) {
		return func(sess *actionlog.Session) (float64, error) {
			enc, err := vocab.Encode(sess)
			if err != nil {
				return 0, err
			}
			sc, err := scorer.ScoreStream(m, enc)
			return sc.AvgLikelihood, err
		}
	}
	scorers := []struct {
		name  string
		score func(*actionlog.Session) (float64, error)
	}{
		{"routed cluster LSTMs", func(sess *actionlog.Session) (float64, error) {
			rep, err := s.Detector.ScoreSession(sess)
			if err != nil {
				return 0, err
			}
			return rep.Score.AvgLikelihood, nil
		}},
		{"global LSTM", avgLikelihood(s.GlobalLM)},
		{"interpolated trigram", avgLikelihood(ngram)},
		{"discrete HMM", func(sess *actionlog.Session) (float64, error) {
			enc, err := vocab.Encode(sess)
			if err != nil {
				return 0, err
			}
			return hmm.AvgLogLikelihood(enc)
		}},
		{"handcrafted features", func(sess *actionlog.Session) (float64, error) {
			enc, err := vocab.Encode(sess)
			if err != nil {
				return 0, err
			}
			return hand.Normality(enc)
		}},
	}

	for _, sc := range scorers {
		normalScores, err := scoreAll(sc.score, real)
		if err != nil {
			return nil, fmt.Errorf("experiments: auc %s: %w", sc.name, err)
		}
		for _, anomSet := range []struct {
			name     string
			sessions []*actionlog.Session
		}{
			{"random", random},
			{"misuse", misuse},
		} {
			anomScores, err := scoreAll(sc.score, anomSet.sessions)
			if err != nil {
				return nil, fmt.Errorf("experiments: auc %s/%s: %w", sc.name, anomSet.name, err)
			}
			curve, auc, err := metrics.ROC(normalScores, anomScores)
			if err != nil {
				return nil, err
			}
			tpr, err := metrics.TPRAtFPR(curve, 0.05)
			if err != nil {
				return nil, err
			}
			res.AddRow(sc.name, anomSet.name, f(auc), f(tpr))
		}
	}
	res.AddNote("AUC of 1.0 = perfect separation, 0.5 = chance; random sessions are the paper's §IV-D artificial set, misuse sessions are scripted insider scenarios")
	return res, nil
}

func scoreAll(score func(*actionlog.Session) (float64, error), sessions []*actionlog.Session) ([]float64, error) {
	out := make([]float64, 0, len(sessions))
	for _, sess := range sessions {
		if sess.Len() < 2 {
			continue
		}
		v, err := score(sess)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no scorable sessions")
	}
	return out, nil
}

// ExtensionTrainingMode compares the paper's exact zero-padded
// moving-window many-to-one training against the per-step sequence
// training this library defaults to, which predicts every action of a
// BPTT segment in one pass instead of re-reading each prefix as its own
// window (nn.TrainerConfig.Windowed): same data, same budget, final test
// loss and wall time.
func ExtensionTrainingMode(s *Setup) (*Result, error) {
	res := &Result{
		Name:  "extension-training-mode",
		Title: "Windowed (paper-exact) vs per-step sequence training",
		Headers: []string{
			"mode", "test accuracy", "test loss", "wall time",
		},
	}
	// Use the largest cluster's data for a meaningful comparison.
	ci := len(s.Clusters) - 1
	trainSessions := s.Splits[ci].Train
	if len(trainSessions) > 120 {
		trainSessions = trainSessions[:120]
	}
	encTrain, err := s.Corpus.Vocabulary.EncodeAll(actionlog.FilterMinLength(trainSessions, 2))
	if err != nil {
		return nil, err
	}
	encTest, err := s.encodeTest(ci)
	if err != nil {
		return nil, err
	}
	for _, mode := range []struct {
		name     string
		windowed bool
	}{
		{"sequence (default)", false},
		{"windowed (paper)", true},
	} {
		cfg := s.cfg.LM
		cfg.Network.InputSize = s.Corpus.Vocabulary.Size()
		cfg.Trainer.Windowed = mode.windowed
		cfg.Trainer.MinOptimizerSteps = 0
		cfg.Trainer.Epochs = 2
		start := time.Now()
		model, err := nn.Train(cfg, encTrain, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: training-mode %s: %w", mode.name, err)
		}
		elapsed := time.Since(start)
		sc, err := scorer.ScoreCorpus(model, encTest)
		if err != nil {
			return nil, err
		}
		res.AddRow(mode.name, f(sc.Accuracy), f(sc.AvgLoss), elapsed.Round(time.Millisecond).String())
	}
	res.AddNote("both modes train the same next-action objective; windowed re-reads every prefix so it costs O(length) more per session")
	return res, nil
}
