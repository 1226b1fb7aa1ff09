// Package harness is the end-to-end evaluation subsystem: it
// replays labeled traffic — the embedded internal/corpus plus freshly
// simulated logsim corpora with injected misuse — through the serving
// stack and turns what comes back into regression-checkable numbers.
//
// It closes the loop the unit suites leave open: internal/core proves
// the engine is deterministic and internal/metrics knows how to score a
// classifier, but nothing connected "generate misuse scenario" to
// "measured AUC through the live scoring path". The harness does, in
// two replay modes:
//
//   - In-process: sessions are scored through core.Detector monitors and
//     the sharded core.Engine (deterministic replay), yielding
//     score-level detection quality (ROC/AUC, TPR at an FPR budget,
//     precision/recall) plus alarm-level results at a calibrated
//     operating point (session detection rate, false-alarm rate,
//     time-to-detection in actions).
//   - Wire-level: the same labeled sessions are streamed as JSON lines
//     over TCP to a live misused daemon and its alarm lines are read
//     back, measuring the deployed stack — wire parsing, sharding,
//     backpressure — rather than library calls (see wire.go).
//
// Thresholds are not hand-tuned: Eval calibrates per-cluster alarm
// floors from a false-positive budget on the held-out normal sessions
// (core.CalibrateMonitorPerCluster) and reports them as a
// core.MonitorConfig fragment that misused loads via -monitor.
//
// misusectl eval is the CLI surface; the CI smoke step runs it on the
// embedded corpus and fails the build when a backend's AUC drops below
// the sanity floor.
package harness

import (
	"fmt"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// LabeledSession is one evaluation session with ground truth attached.
type LabeledSession struct {
	// Session is the replayable session.
	Session *actionlog.Session
	// Kind labels the session's taxonomy leaf: corpus.KindProfile for
	// normals, or one of the anomaly kinds.
	Kind string
	// Campaign groups the sessions of one multi-session scenario unit
	// (a low-and-slow campaign, a coordinated attack, one flash-crowd
	// surge); empty for independent sessions.
	Campaign string
	// ExpectedAnomalous is the detection label.
	ExpectedAnomalous bool
}

// Traffic is a labeled evaluation workload: per-cluster training
// sessions, held-out normal sessions (calibration and the normal side of
// every metric), and labeled anomalies.
type Traffic struct {
	// Source names where the traffic came from ("corpus" or "logsim").
	Source string
	// Vocab is the action vocabulary shared by all sessions.
	Vocab *actionlog.Vocabulary
	// Train holds the training sessions grouped by behavior cluster.
	Train [][]*actionlog.Session
	// Holdout holds the held-out normal sessions.
	Holdout []LabeledSession
	// Anomalies holds the labeled anomalous sessions.
	Anomalies []LabeledSession
}

// TrainCount returns the total number of training sessions.
func (t *Traffic) TrainCount() int {
	n := 0
	for _, c := range t.Train {
		n += len(c)
	}
	return n
}

// EvalSessions returns the evaluation split: every held-out normal and
// every anomaly, in a deterministic order (normals first).
func (t *Traffic) EvalSessions() []LabeledSession {
	out := make([]LabeledSession, 0, len(t.Holdout)+len(t.Anomalies))
	out = append(out, t.Holdout...)
	return append(out, t.Anomalies...)
}

// Events flattens the evaluation split into one deterministic,
// time-ordered, interleaved event stream: session i starts i minutes
// after a fixed base, so in-process and wire replays see identical
// traffic.
func (t *Traffic) Events() []actionlog.Event {
	return flattenLabeled(t.EvalSessions())
}

// flattenLabeled assigns deterministic start times and flattens to one
// time-ordered event stream. Independent sessions get one slot per
// minute; sessions sharing a Campaign keep their original relative
// start offsets, anchored at the first member's slot — so a coordinated
// attack's members genuinely interleave in the replay stream and a
// flash-crowd surge arrives packed, exactly as generated.
func flattenLabeled(labeled []LabeledSession) []actionlog.Event {
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	type anchor struct {
		slot  int
		start time.Time
	}
	anchors := make(map[string]anchor)
	sessions := make([]*actionlog.Session, len(labeled))
	for i, l := range labeled {
		s := l.Session.Clone()
		if l.Campaign == "" {
			s.Start = base.Add(time.Duration(i) * time.Minute)
		} else {
			a, ok := anchors[l.Campaign]
			if !ok {
				a = anchor{slot: i, start: l.Session.Start}
				anchors[l.Campaign] = a
			}
			s.Start = base.Add(time.Duration(a.slot) * time.Minute).Add(l.Session.Start.Sub(a.start))
		}
		sessions[i] = s
	}
	return actionlog.Flatten(sessions)
}

// CorpusTraffic builds the evaluation workload from the embedded labeled
// corpus: per behavior cluster, all but holdoutPerCluster normal
// sessions train the models and the rest are held out; every corpus
// anomaly goes to the evaluation split. Deterministic by construction —
// the corpus is fixed and the split takes each cluster's trailing
// sessions.
func CorpusTraffic(holdoutPerCluster int) (*Traffic, error) {
	if holdoutPerCluster < 1 {
		return nil, fmt.Errorf("harness: holdoutPerCluster must be >= 1, got %d", holdoutPerCluster)
	}
	c, err := corpus.Load()
	if err != nil {
		return nil, err
	}
	vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
	if err != nil {
		return nil, err
	}
	kinds := make(map[string]string, len(c.Sessions))
	camps := make(map[string]string, len(c.Sessions))
	for _, s := range c.Sessions {
		kinds[s.ID] = s.Kind
		camps[s.ID] = s.Campaign
	}
	tr := &Traffic{Source: "corpus", Vocab: vocab}
	for ci, group := range c.ByCluster() {
		if len(group) <= holdoutPerCluster {
			return nil, fmt.Errorf("harness: cluster %d has %d corpus sessions, cannot hold out %d",
				ci, len(group), holdoutPerCluster)
		}
		cut := len(group) - holdoutPerCluster
		tr.Train = append(tr.Train, group[:cut])
		for _, s := range group[cut:] {
			tr.Holdout = append(tr.Holdout, LabeledSession{Session: s, Kind: kinds[s.ID]})
		}
	}
	for _, as := range c.ActionSessions() {
		switch kind := kinds[as.ID]; kind {
		case corpus.KindProfile:
			// Cluster-grouped above.
		case corpus.KindFlashCrowd:
			// Benign surge traffic: evaluation holdout (it counts against
			// the false-alarm rate and participates in calibration), never
			// training material.
			tr.Holdout = append(tr.Holdout, LabeledSession{Session: as, Kind: kind, Campaign: camps[as.ID]})
		default:
			tr.Anomalies = append(tr.Anomalies, LabeledSession{
				Session: as, Kind: kind, Campaign: camps[as.ID], ExpectedAnomalous: true,
			})
		}
	}
	if len(tr.Anomalies) == 0 {
		return nil, fmt.Errorf("harness: corpus has no anomalous sessions")
	}
	return tr, nil
}

// simHoldoutDivisor sets SimTraffic's per-cluster split: the trailing
// quarter of each cluster's normal sessions (rounded down) is held out.
const simHoldoutDivisor = 4

// SimConfig parameterizes a freshly simulated workload.
type SimConfig struct {
	// Seed makes the whole workload reproducible.
	Seed int64
	// Divisor shrinks the paper-scale logsim corpus (logsim.ScaledConfig);
	// 0 defaults to 100 (~150 sessions).
	Divisor int
	// RandomSessions is the number of uniformly random anomalies; 0
	// defaults to 30.
	RandomSessions int
	// MisuseSessions is the number of scripted misuse sessions, cycling
	// through every scenario; 0 defaults to 15.
	MisuseSessions int
	// MimicrySessions is the number of mimicry attack sessions; 0
	// defaults to 6, -1 disables.
	MimicrySessions int
	// LowSlowCampaigns is the number of low-and-slow campaigns (each a
	// handful of short sessions); 0 defaults to 2, -1 disables.
	LowSlowCampaigns int
	// CoordCampaigns is the number of coordinated multi-user campaigns;
	// 0 defaults to 2, -1 disables.
	CoordCampaigns int
	// FlashCrowds is the number of benign flash-crowd surges (each a
	// cohort of legitimate sessions packed into seconds, added to the
	// holdout); 0 defaults to 1, -1 disables.
	FlashCrowds int
}

func (c *SimConfig) setDefaults() {
	if c.Divisor == 0 {
		c.Divisor = 100
	}
	if c.RandomSessions == 0 {
		c.RandomSessions = 30
	}
	if c.MisuseSessions == 0 {
		c.MisuseSessions = 15
	}
	if c.MimicrySessions == 0 {
		c.MimicrySessions = 6
	}
	if c.LowSlowCampaigns == 0 {
		c.LowSlowCampaigns = 2
	}
	if c.CoordCampaigns == 0 {
		c.CoordCampaigns = 2
	}
	if c.FlashCrowds == 0 {
		c.FlashCrowds = 1
	}
}

// SimTraffic generates a labeled workload with the simulator: a
// logsim.ScaledConfig corpus for the normal side (ground-truth profile
// clusters, per-cluster holdout split) plus logsim.RandomSessions,
// scripted misuse sessions, and every adversarial scenario family —
// mimicry, low-and-slow and coordinated campaigns as labeled anomalies,
// benign flash-crowd surges in the holdout — scenario replay beyond the
// fixed embedded corpus.
func SimTraffic(cfg SimConfig) (*Traffic, error) {
	cfg.setDefaults()
	sim, err := logsim.Generate(logsim.ScaledConfig(cfg.Seed, cfg.Divisor))
	if err != nil {
		return nil, err
	}
	tr := &Traffic{Source: "logsim", Vocab: sim.Vocabulary}
	for _, group := range sim.ByCluster() {
		group = actionlog.FilterMinLength(group, 2)
		holdout := len(group) / simHoldoutDivisor
		if len(group)-holdout < 2 {
			// A cluster too small to both train and hold out is dropped:
			// the simulator's popularity skew legitimately starves rare
			// profiles at high divisors.
			continue
		}
		cut := len(group) - holdout
		tr.Train = append(tr.Train, group[:cut])
		for _, s := range group[cut:] {
			tr.Holdout = append(tr.Holdout, LabeledSession{Session: s, Kind: corpus.KindProfile})
		}
	}
	if len(tr.Train) == 0 {
		return nil, fmt.Errorf("harness: simulated corpus left no trainable clusters (divisor %d too large)", cfg.Divisor)
	}
	random, err := logsim.RandomSessions(sim.Vocabulary, cfg.RandomSessions, 5, 25, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	for _, s := range random {
		tr.Anomalies = append(tr.Anomalies, LabeledSession{Session: s, Kind: corpus.KindRandom, ExpectedAnomalous: true})
	}
	scenarios := []logsim.MisuseScenario{logsim.MisuseMassDeletion, logsim.MisuseAccountFactory, logsim.MisuseCredentialSweep}
	for i := 0; i < cfg.MisuseSessions; i++ {
		sc := scenarios[i%len(scenarios)]
		s, err := logsim.MisuseSession(sc, 3+i%5, cfg.Seed+2+int64(i))
		if err != nil {
			return nil, err
		}
		s.ID = fmt.Sprintf("%s-%03d", s.ID, i)
		tr.Anomalies = append(tr.Anomalies, LabeledSession{Session: s, Kind: sc.String(), ExpectedAnomalous: true})
	}
	// Adversarial families; each section uses an independent seed offset
	// so disabling one never reshuffles another. Benign surge members go
	// to the holdout, everything else to the anomaly split.
	adversarial := []struct {
		scenario logsim.MisuseScenario
		units    int
		seedOff  int64
	}{
		{logsim.MisuseMimicry, cfg.MimicrySessions, 1000},
		{logsim.MisuseLowAndSlow, cfg.LowSlowCampaigns, 2000},
		{logsim.MisuseCoordinated, cfg.CoordCampaigns, 3000},
		{logsim.BenignFlashCrowd, cfg.FlashCrowds, 4000},
	}
	for _, a := range adversarial {
		if a.units < 1 {
			continue
		}
		ss, err := logsim.GenerateScenario(a.scenario, a.units, cfg.Seed+a.seedOff)
		if err != nil {
			return nil, err
		}
		for _, s := range ss {
			l := LabeledSession{
				Session: s.Session, Kind: s.Scenario.String(),
				Campaign: s.Campaign, ExpectedAnomalous: s.Anomalous,
			}
			if s.Anomalous {
				tr.Anomalies = append(tr.Anomalies, l)
			} else {
				tr.Holdout = append(tr.Holdout, l)
			}
		}
	}
	if len(tr.Holdout) == 0 {
		return nil, fmt.Errorf("harness: simulated corpus left no holdout sessions")
	}
	return tr, nil
}
