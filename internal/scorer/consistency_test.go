package scorer_test

import (
	"math"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/logsim"
	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// trainAllBackends fits one model per registered family on a small
// simulator corpus over the full logsim vocabulary. The LSTM is trained
// through nn directly so its network is at hand as the reference.
func trainAllBackends(t *testing.T) ([]scorer.Scorer, *nn.LanguageNetwork, *actionlog.Vocabulary) {
	t.Helper()
	corpus, err := logsim.Generate(logsim.Config{
		Sessions: 60, Users: 10, Days: 1,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := corpus.Vocabulary.EncodeAll(actionlog.FilterMinLength(corpus.Sessions, 2))
	if err != nil {
		t.Fatal(err)
	}
	ng, err := baseline.TrainNGram(encoded, corpus.Vocabulary.Size())
	if err != nil {
		t.Fatal(err)
	}
	hm, err := baseline.TrainHMM(encoded, corpus.Vocabulary.Size(), baseline.HMMConfig{States: 3, Iterations: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lmCfg := nn.ScaledConfig(corpus.Vocabulary.Size(), 8, 1, 9)
	lmCfg.Network.DropoutRate = 0
	net, err := nn.NewLanguageNetwork(lmCfg.Network)
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := nn.NewTrainer(net, lmCfg.Trainer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Fit(encoded[:20], nil); err != nil {
		t.Fatal(err)
	}
	return []scorer.Scorer{net, ng, hm}, net, corpus.Vocabulary
}

// TestStreamBatchEquivalenceProperty is the main stream-vs-batch
// guarantee: every backend's stream, which is the only scoring path,
// observes each action of a session exactly as the backend's
// independent whole-prefix reference does — the LSTM's ForwardAll
// (likelihood and argmax, bit for bit), the n-gram's Prob (likelihood
// and argmax, bit for bit) and the HMM's LogLikelihood (the log
// likelihood of each action as the difference of two prefix
// log-likelihoods) — over randomized sessions from
// logsim.RandomSessions, not hand-picked pins. Random sessions exercise
// arbitrary action mixtures and lengths from the 2-action minimum up,
// which is exactly where windowed stream state (n-gram context windows,
// HMM forward state, LSTM recurrent state) can drift from the
// reference.
func TestStreamBatchEquivalenceProperty(t *testing.T) {
	models, net, vocab := trainAllBackends(t)
	random, err := logsim.RandomSessions(vocab, 40, 2, 45, 1234)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		for _, sess := range random {
			encoded, err := vocab.Encode(sess)
			if err != nil {
				t.Fatal(err)
			}
			st := m.NewStream()
			predicted := -1
			for i, a := range encoded {
				lik, dist, err := st.Observe(a)
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					checkReference(t, m, net, encoded[:i+1], lik, predicted)
				}
				predicted = dist.ArgMax()
			}
		}
	}
}

// checkReference compares the stream's likelihood of prefix's last
// action, and its argmax prediction of it from the previous step, with
// the backend's whole-prefix reference.
func checkReference(t *testing.T, m scorer.Scorer, net *nn.LanguageNetwork, prefix []int, lik float64, predicted int) {
	t.Helper()
	pos, a := len(prefix)-1, prefix[len(prefix)-1]
	switch m := m.(type) {
	case *nn.LanguageNetwork:
		probs, err := net.ForwardAll(prefix[:pos])
		if err != nil {
			t.Fatal(err)
		}
		last := probs[pos-1]
		if math.Float64bits(lik) != math.Float64bits(last[a]) || predicted != last.ArgMax() {
			t.Fatalf("lstm position %d: stream (%v, argmax %d), ForwardAll (%v, argmax %d)",
				pos, lik, predicted, last[a], last.ArgMax())
		}
	case *baseline.NGram:
		best, bestP := -1, -1.0
		for b := 0; b < m.VocabSize(); b++ {
			p, err := m.Prob(prefix[:pos], b)
			if err != nil {
				t.Fatal(err)
			}
			if b == a && math.Float64bits(p) != math.Float64bits(lik) {
				t.Fatalf("ngram position %d: stream %v, Prob %v", pos, lik, p)
			}
			if p > bestP {
				best, bestP = b, p
			}
		}
		if predicted != best {
			t.Fatalf("ngram position %d: stream argmax %d, Prob argmax %d", pos, predicted, best)
		}
	case *baseline.HMM:
		whole, err := m.LogLikelihood(prefix)
		if err != nil {
			t.Fatal(err)
		}
		head, err := m.LogLikelihood(prefix[:pos])
		if err != nil {
			t.Fatal(err)
		}
		if want := whole - head; math.Abs(math.Log(lik)-want) > 1e-9 {
			t.Fatalf("hmm position %d: stream log-likelihood %v, LogLikelihood difference %v", pos, math.Log(lik), want)
		}
	default:
		t.Fatalf("no reference for backend %s", m.Backend())
	}
}

// TestStreamLikelihoodFastPathProperty extends the property to the
// serving hot path: mixing ObserveLikelihood and Observe must advance
// every backend's stream identically to Observe alone.
func TestStreamLikelihoodFastPathProperty(t *testing.T) {
	models, _, vocab := trainAllBackends(t)
	random, err := logsim.RandomSessions(vocab, 15, 2, 45, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		for _, sess := range random {
			encoded, err := vocab.Encode(sess)
			if err != nil {
				t.Fatal(err)
			}
			ref := m.NewStream()
			mixed := m.NewStream()
			for i, a := range encoded {
				want, _, err := ref.Observe(a)
				if err != nil {
					t.Fatal(err)
				}
				var got float64
				if i%2 == 0 {
					got, err = mixed.ObserveLikelihood(a)
				} else {
					got, _, err = mixed.Observe(a)
				}
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s session %s position %d: mixed %v, Observe %v",
						m.Backend(), sess.ID, i, got, want)
				}
			}
		}
	}
}
