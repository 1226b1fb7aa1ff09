package core

import (
	"math/rand"
	"sync"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// oracleDetectors trains one 13-cluster detector per backend on the
// embedded corpus, with the paper's 15-action routing vote: LSTM-16,
// n-gram and HMM. Shared by the oracle test and its fuzz twin.
var (
	oracleDetOnce sync.Once
	oracleDets    map[string]*Detector
	oracleDetErr  error
)

func oracleDetectors(t testing.TB) map[string]*Detector {
	t.Helper()
	oracleDetOnce.Do(func() {
		c, err := corpus.Load()
		if err != nil {
			oracleDetErr = err
			return
		}
		vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
		if err != nil {
			oracleDetErr = err
			return
		}
		oracleDets = make(map[string]*Detector)
		for _, backend := range []string{"lstm", "ngram", "hmm"} {
			cfg := ScaledConfig(vocab.Size(), 13, 16, 1, 3)
			cfg.Backend = backend
			cfg.LM.Trainer.LearningRate = 0.01
			cfg.LM.Network.DropoutRate = 0
			det, err := TrainDetector(cfg, vocab, c.ByCluster(), nil)
			if err != nil {
				oracleDetErr = err
				return
			}
			oracleDets[backend] = det
		}
	})
	if oracleDetErr != nil {
		t.Fatalf("train oracle detectors: %v", oracleDetErr)
	}
	return oracleDets
}

// checkMonitorAgainstFreshStreams plays actions through a new monitor
// of d and requires every step's likelihood to carry the bits a fresh
// stream of the step's cluster returns after actions[0..p]. The oracle
// shares nothing with the monitor but the models: for each cluster the
// session was ever routed to, one fresh stream reads the whole session,
// and its likelihood at p is the one a stream fed exactly actions[0..p]
// returns last. It reports the session's changes of vote leader and how
// many of them handed the lead back to a cluster that had led before.
func checkMonitorAgainstFreshStreams(t testing.TB, d *Detector, actions []int) (changes, flipBacks int) {
	t.Helper()
	mon, err := d.NewSessionMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]MonitorStep, len(actions))
	led := make(map[int]bool)
	for p, a := range actions {
		step, err := mon.ObserveToken(a)
		if err != nil {
			t.Fatal(err)
		}
		steps[p] = step
		if p > 0 && step.Cluster != steps[p-1].Cluster {
			changes++
			if led[step.Cluster] {
				flipBacks++
			}
		}
		led[step.Cluster] = true
	}
	for c := range led {
		st := d.clusters[c].Model.NewStream()
		for p, a := range actions {
			want, err := st.ObserveLikelihood(a)
			if err != nil {
				t.Fatal(err)
			}
			if steps[p].Cluster == c && steps[p].Likelihood != want {
				t.Fatalf("%s position %d, cluster %d: monitor likelihood %v, fresh stream %v (actions %v)",
					d.cfg.Backend, p, c, steps[p].Likelihood, want, actions[:p+1])
			}
		}
	}
	return changes, flipBacks
}

// TestMonitorMatchesFreshStreams is the monitor's oracle: on every
// backend, every step of every session scores with the bits a fresh
// stream of its routed cluster gives, so the one stream a voting session
// keeps, rebuilt and replayed over the vote-window prefix when the lead
// changes, is observably the stream the cluster would have had from the
// first action. The sessions are the corpus's, plus seeded random ones,
// whose votes change leader often. The set must change leader, and hand
// the lead back to an earlier leader, or the check is vacuous.
func TestMonitorMatchesFreshStreams(t *testing.T) {
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	dets := oracleDetectors(t)
	var sessions [][]int
	for _, s := range c.ActionSessions() {
		encoded, err := dets["lstm"].Vocabulary().Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, encoded)
	}
	rng := rand.New(rand.NewSource(5))
	for range 200 {
		s := make([]int, 30)
		for i := range s {
			s[i] = rng.Intn(dets["lstm"].Vocabulary().Size())
		}
		sessions = append(sessions, s)
	}
	for _, backend := range []string{"lstm", "ngram", "hmm"} {
		changes, flipBacks := 0, 0
		for _, s := range sessions {
			ch, fb := checkMonitorAgainstFreshStreams(t, dets[backend], s)
			changes += ch
			flipBacks += fb
		}
		t.Logf("%s: %d sessions, %d leader changes, %d flip-backs", backend, len(sessions), changes, flipBacks)
		if changes == 0 || flipBacks == 0 {
			t.Fatalf("%s: %d leader changes and %d flip-backs over %d sessions: the replay is untested",
				backend, changes, flipBacks, len(sessions))
		}
	}
}

// FuzzMonitorMatchesFreshStreams is the oracle test on arbitrary
// sessions: the first byte picks the backend, every further byte is one
// action. Random actions change the vote's leader far more often than
// recorded behavior does.
func FuzzMonitorMatchesFreshStreams(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{1, 200, 3, 90, 90, 17, 4, 250, 33, 33, 33, 8, 120, 7, 60, 61, 62, 5})
	f.Add([]byte{2, 9, 9, 9, 9, 40, 41, 42, 9, 9, 9, 100, 101, 102, 103, 104, 105, 106, 107})
	backends := []string{"lstm", "ngram", "hmm"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := oracleDetectors(t)[backends[int(data[0])%len(backends)]]
		actions := make([]int, min(len(data)-1, 64))
		for i := range actions {
			actions[i] = int(data[i+1]) % d.Vocabulary().Size()
		}
		checkMonitorAgainstFreshStreams(t, d, actions)
	})
}
