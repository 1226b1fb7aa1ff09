package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
	"misusedetect/internal/metrics"
	"misusedetect/internal/scorer"
)

// EvalOptions tunes an in-process evaluation run.
type EvalOptions struct {
	// Backends lists the scorer backends to evaluate; nil defaults to
	// lstm, ngram, and hmm.
	Backends []string
	// FPRBudget is the false-positive budget for calibration and the
	// TPR operating point; 0 defaults to 0.05.
	FPRBudget float64
	// Monitor is the base monitor configuration calibration starts from;
	// the zero value defaults to core.DefaultMonitorConfig.
	Monitor core.MonitorConfig
	// Hidden and Epochs size the LSTM backend; 0 defaults to 16 and 4.
	Hidden, Epochs int
	// Shards is the engine shard count for the alarm-level replay; 0
	// defaults to 4.
	Shards int
	// Seed derives the training seeds.
	Seed int64
}

func (o *EvalOptions) setDefaults() {
	if o.Backends == nil {
		o.Backends = []string{"lstm", "ngram", "hmm"}
	}
	if o.FPRBudget == 0 {
		o.FPRBudget = 0.05
	}
	if o.Monitor.EWMAAlpha == 0 {
		o.Monitor = core.DefaultMonitorConfig()
	}
	if o.Hidden == 0 {
		o.Hidden = 16
	}
	if o.Epochs == 0 {
		o.Epochs = 4
	}
	if o.Shards == 0 {
		o.Shards = 4
	}
}

// ClusterReport is the detection-quality breakdown for one behavior
// cluster (sessions grouped by their best-explaining cluster; see
// scoreSession).
type ClusterReport struct {
	Cluster   int `json:"cluster"`
	Normals   int `json:"normals"`
	Anomalies int `json:"anomalies"`
	// AUC is -1 when the cluster attracted only one class and the curve
	// is undefined.
	AUC float64 `json:"auc"`
	// Floor is the cluster's calibrated alarm floor.
	Floor float64 `json:"floor"`
}

// Detection is the session-level fold of an alarm stream over labeled
// traffic, shared by the in-process engine replay and the wire replay.
type Detection struct {
	NormalSessions    int `json:"normal_sessions"`
	AlarmedNormals    int `json:"alarmed_normals"`
	AnomalySessions   int `json:"anomaly_sessions"`
	DetectedAnomalies int `json:"detected_anomalies"`
	// MeanTimeToDetection is the mean number of actions until the first
	// alarm of a detected anomalous session (-1 when nothing was
	// detected).
	MeanTimeToDetection float64 `json:"mean_time_to_detection_actions"`
	// DetectedByKind counts detected anomalous sessions per scenario
	// kind.
	DetectedByKind map[string]int `json:"detected_by_kind"`
	// TTDByKind is the mean time-to-detection (actions) of the detected
	// anomalous sessions per scenario kind.
	TTDByKind map[string]float64 `json:"ttd_by_kind,omitempty"`
	// AlarmedNormalsByKind counts false-alarmed benign sessions per
	// kind (profile holdout vs flash-crowd surges).
	AlarmedNormalsByKind map[string]int `json:"alarmed_normals_by_kind,omitempty"`
}

// firstAlarms reduces an alarm stream to each session's first alarm
// position.
func firstAlarms(alarms []core.Alarm) map[string]int {
	first := make(map[string]int)
	for _, a := range alarms {
		if _, ok := first[a.SessionID]; !ok {
			first[a.SessionID] = a.Position
		}
	}
	return first
}

// FoldAlarms reduces an alarm stream to session-level detection counts:
// a session counts as detected (or false-alarmed) when any alarm names
// it, and its time-to-detection is the 1-based position of its first
// alarm.
func FoldAlarms(alarms []core.Alarm, labeled []LabeledSession) Detection {
	return foldFirstAlarms(firstAlarms(alarms), labeled)
}

func foldFirstAlarms(firstAlarm map[string]int, labeled []LabeledSession) Detection {
	det := Detection{
		DetectedByKind:       make(map[string]int),
		TTDByKind:            make(map[string]float64),
		AlarmedNormalsByKind: make(map[string]int),
	}
	var ttdSum float64
	kindTTD := make(map[string]float64)
	for _, l := range labeled {
		pos, alarmed := firstAlarm[l.Session.ID]
		if l.ExpectedAnomalous {
			det.AnomalySessions++
			if alarmed {
				det.DetectedAnomalies++
				det.DetectedByKind[l.Kind]++
				ttdSum += float64(pos + 1)
				kindTTD[l.Kind] += float64(pos + 1)
			}
		} else {
			det.NormalSessions++
			if alarmed {
				det.AlarmedNormals++
				det.AlarmedNormalsByKind[l.Kind]++
			}
		}
	}
	det.MeanTimeToDetection = -1
	if det.DetectedAnomalies > 0 {
		det.MeanTimeToDetection = ttdSum / float64(det.DetectedAnomalies)
	}
	for kind, sum := range kindTTD {
		det.TTDByKind[kind] = sum / float64(det.DetectedByKind[kind])
	}
	return det
}

// ReplayReport is the alarm-level outcome of replaying the evaluation
// split through the sharded engine at the calibrated operating point.
type ReplayReport struct {
	Shards int `json:"shards"`
	Events int `json:"events"`
	Detection
}

// BackendReport is the full detection-quality report for one backend.
type BackendReport struct {
	Backend      string  `json:"backend"`
	TrainSeconds float64 `json:"train_seconds"`
	// NormalSessions and AnomalySessions count the scored evaluation
	// sessions; SkippedSessions were too short to score.
	NormalSessions  int `json:"normal_sessions"`
	AnomalySessions int `json:"anomaly_sessions"`
	SkippedSessions int `json:"skipped_sessions"`
	// AUC is the area under the ROC of the session normality score: the
	// best-cluster minimum post-warmup smoothed likelihood (see
	// scoreSession). Scoring a session against every cluster model and
	// keeping the best explanation absorbs the routing imprecision that
	// otherwise dominates with small per-cluster training sets — the
	// same idea as the paper's weighted-combination extension, with min
	// semantics matching the alarm floor.
	AUC float64 `json:"auc"`
	// TPRAtBudget is the recall achievable within the FPR budget.
	FPRBudget   float64 `json:"fpr_budget"`
	TPRAtBudget float64 `json:"tpr_at_budget"`
	// ScoreThreshold is the normality-score threshold realizing
	// TPRAtBudget (the highest-recall ROC operating point within the
	// budget); Precision and Recall are measured at it.
	ScoreThreshold float64 `json:"score_threshold"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	// Calibrated is the full calibrated monitor configuration — the
	// loadable threshold fragment (core.SaveMonitorConfig / misused
	// -monitor).
	Calibrated core.MonitorConfig `json:"calibrated"`
	Clusters   []ClusterReport    `json:"clusters"`
	Replay     ReplayReport       `json:"replay"`
	// Scenarios is the per-attack-class breakdown: one row per scenario
	// kind in the evaluation split (every kind except plain profile
	// holdout, including the benign flash-crowd control class).
	Scenarios []ScenarioReport `json:"scenarios"`
}

// ScenarioReport is the detection-quality breakdown for one scenario
// kind — the per-attack-class numbers quality gates act on, so a model
// that only catches loud scripted misuse can't hide behind a blended
// AUC.
type ScenarioReport struct {
	// Scenario is the kind tag (logsim.MisuseScenario name, or "random").
	Scenario string `json:"scenario"`
	// Benign marks control classes (flash-crowd) that must NOT alarm.
	Benign bool `json:"benign,omitempty"`
	// Sessions counts the class's evaluation sessions; Campaigns counts
	// distinct multi-session units (0 for single-session kinds).
	Sessions  int `json:"sessions"`
	Campaigns int `json:"campaigns,omitempty"`
	// TPRAtBudget is the fraction of the class's scored sessions flagged
	// at the shared FPR-budget operating point (scores below
	// BackendReport.ScoreThreshold); -1 for benign classes.
	TPRAtBudget float64 `json:"tpr_at_budget"`
	// FalseAlarmRate is the replay-level fraction of the class's benign
	// sessions that raised an alarm; -1 for anomalous classes.
	FalseAlarmRate float64 `json:"false_alarm_rate"`
	// DetectedSessions counts class sessions that raised at least one
	// alarm in the engine replay (for benign classes these are false
	// alarms); DetectedCampaigns counts campaigns with >= 1 detected
	// member — the detection unit for low-and-slow and coordinated
	// attacks, where catching any slice exposes the whole campaign.
	DetectedSessions  int `json:"detected_sessions"`
	DetectedCampaigns int `json:"detected_campaigns,omitempty"`
	// MeanTimeToDetection is the replay-level mean actions to first
	// alarm over detected sessions (-1 when none, or benign).
	MeanTimeToDetection float64 `json:"mean_time_to_detection_actions"`
}

// EvalReport is the report of one evaluation run across backends.
type EvalReport struct {
	Source          string          `json:"source"`
	Vocabulary      int             `json:"vocabulary"`
	ClusterCount    int             `json:"clusters"`
	TrainSessions   int             `json:"train_sessions"`
	HoldoutSessions int             `json:"holdout_sessions"`
	AnomalySessions int             `json:"anomaly_sessions"`
	FPRBudget       float64         `json:"fpr_budget"`
	Backends        []BackendReport `json:"backends"`
}

// sessionScore is one evaluation session's scored outcome.
type sessionScore struct {
	labeled LabeledSession
	score   float64
	cluster int
}

// Eval trains one detector per requested backend on the traffic's
// training split and evaluates detection quality on the held-out
// sessions: score-level ROC metrics, per-cluster breakdowns, threshold
// calibration from the FPR budget, and an alarm-level engine replay at
// the calibrated operating point.
func Eval(tr *Traffic, opt EvalOptions) (*EvalReport, error) {
	opt.setDefaults()
	if len(tr.Holdout) == 0 || len(tr.Anomalies) == 0 {
		return nil, fmt.Errorf("harness: eval needs held-out normals (%d) and anomalies (%d)",
			len(tr.Holdout), len(tr.Anomalies))
	}
	report := &EvalReport{
		Source:          tr.Source,
		Vocabulary:      tr.Vocab.Size(),
		ClusterCount:    len(tr.Train),
		TrainSessions:   tr.TrainCount(),
		HoldoutSessions: len(tr.Holdout),
		AnomalySessions: len(tr.Anomalies),
		FPRBudget:       opt.FPRBudget,
	}
	for _, backend := range opt.Backends {
		br, err := evalBackend(tr, opt, backend)
		if err != nil {
			return nil, fmt.Errorf("harness: eval %s: %w", backend, err)
		}
		report.Backends = append(report.Backends, br)
	}
	return report, nil
}

// SmallDataConfig is the harness's small-data training recipe:
// core.ScaledConfig with a higher learning rate and no dropout — tiny
// networks on a handful of sessions per cluster never reach a useful
// loss at the paper's production rate. The adaptation pipeline retrains
// with it too.
func SmallDataConfig(vocab, clusters, hidden, epochs int, seed int64) core.Config {
	cfg := core.ScaledConfig(vocab, clusters, hidden, epochs, seed)
	cfg.LM.Trainer.LearningRate = 0.01
	cfg.LM.Network.DropoutRate = 0
	return cfg
}

// trainDetector fits one detector of the given backend on the traffic
// with the small-data recipe.
func trainDetector(tr *Traffic, opt EvalOptions, backend string) (*core.Detector, error) {
	cfg := SmallDataConfig(tr.Vocab.Size(), len(tr.Train), opt.Hidden, opt.Epochs, opt.Seed)
	cfg.Backend = backend
	return core.TrainDetector(cfg, tr.Vocab, tr.Train, nil)
}

func evalBackend(tr *Traffic, opt EvalOptions, backend string) (BackendReport, error) {
	t0 := time.Now()
	det, err := trainDetector(tr, opt, backend)
	if err != nil {
		return BackendReport{}, err
	}
	trainSeconds := time.Since(t0).Seconds()
	br, err := EvalDetector(det, tr, opt)
	if err != nil {
		return BackendReport{}, err
	}
	br.TrainSeconds = trainSeconds
	return br, nil
}

// EvalDetector evaluates an already-trained detector on the traffic's
// evaluation split: the path behind `misusectl eval -model`, which
// calibrates thresholds for the exact model a daemon serves instead of
// a freshly trained stand-in. Evaluation sessions containing actions
// outside the detector's vocabulary are skipped and counted, so a model
// trained on a session-derived vocabulary still evaluates against
// full-simulator traffic.
func EvalDetector(det *core.Detector, tr *Traffic, opt EvalOptions) (BackendReport, error) {
	opt.setDefaults()
	vocabOK := func(s *actionlog.Session) bool {
		for _, a := range s.Actions {
			if !det.Vocabulary().Contains(a) {
				return false
			}
		}
		return true
	}
	eval := &Traffic{Source: tr.Source, Vocab: det.Vocabulary()}
	br := BackendReport{
		Backend:   det.Backend(),
		FPRBudget: opt.FPRBudget,
	}
	for _, l := range tr.Holdout {
		if vocabOK(l.Session) {
			eval.Holdout = append(eval.Holdout, l)
		} else {
			br.SkippedSessions++
		}
	}
	for _, l := range tr.Anomalies {
		if vocabOK(l.Session) {
			eval.Anomalies = append(eval.Anomalies, l)
		} else {
			br.SkippedSessions++
		}
	}
	if len(eval.Holdout) == 0 || len(eval.Anomalies) == 0 {
		return BackendReport{}, fmt.Errorf("vocabulary filter left %d holdout and %d anomalous sessions",
			len(eval.Holdout), len(eval.Anomalies))
	}

	// Score every evaluation session: the normality score is the minimum
	// post-warmup smoothed likelihood — the exact quantity the alarm
	// floor acts on, so the ROC thresholds map one-to-one onto floors.
	var scored []sessionScore
	for _, l := range eval.EvalSessions() {
		sc, cluster, err := scoreSession(det, opt.Monitor, l.Session)
		if err != nil {
			return BackendReport{}, err
		}
		if cluster < 0 {
			br.SkippedSessions++
			continue
		}
		scored = append(scored, sessionScore{labeled: l, score: sc, cluster: cluster})
	}
	var normalScores, anomalyScores []float64
	for _, s := range scored {
		if s.labeled.ExpectedAnomalous {
			anomalyScores = append(anomalyScores, s.score)
		} else {
			normalScores = append(normalScores, s.score)
		}
	}
	br.NormalSessions, br.AnomalySessions = len(normalScores), len(anomalyScores)

	curve, auc, err := metrics.ROC(normalScores, anomalyScores)
	if err != nil {
		return BackendReport{}, err
	}
	br.AUC = auc
	op, err := metrics.OperatingPointAtFPR(curve, opt.FPRBudget)
	if err != nil {
		return BackendReport{}, err
	}
	br.TPRAtBudget = op.TruePositiveRate
	br.ScoreThreshold = op.Threshold
	if br.Precision, br.Recall, err = metrics.PrecisionRecallAt(normalScores, anomalyScores, op.Threshold); err != nil {
		return BackendReport{}, err
	}

	// Calibrate per-cluster alarm floors from the held-out normals;
	// unlike the score-space operating point above, these act on the
	// serving path's routed-cluster smoothed likelihood, so they are
	// directly loadable by the misused daemon.
	validation := make([]*actionlog.Session, len(eval.Holdout))
	for i, l := range eval.Holdout {
		validation[i] = l.Session
	}
	calibrated, err := det.CalibrateMonitorPerCluster(opt.Monitor, validation, opt.FPRBudget, 2)
	if err != nil {
		return BackendReport{}, err
	}
	br.Calibrated = calibrated

	br.Clusters = clusterReports(det.ClusterCount(), scored, calibrated)

	replay, first, err := replayEngine(det, calibrated, eval, opt.Shards)
	if err != nil {
		return BackendReport{}, err
	}
	br.Replay = replay
	br.Scenarios = scenarioReports(eval.EvalSessions(), scored, br.ScoreThreshold, first)
	return br, nil
}

// scoreSession computes one session's normality score: per behavior
// cluster, the session streams through the cluster's sequence model
// under the monitor's EWMA, recording the minimum post-warmup smoothed
// likelihood (the session's worst stretch as that cluster sees it); the
// score is the maximum over clusters — how well the *best-explaining*
// behavior accounts for the session's weakest point. Normal sessions fit
// some cluster and score high; anomalies fit none and stay low, no
// matter how the OC-SVM vote would have routed them. The returned
// cluster is the best-explaining one; -1 means the session was too short
// to score.
func scoreSession(det *core.Detector, base core.MonitorConfig, s *actionlog.Session) (float64, int, error) {
	if s.Len() < det.Config().MinSessionLength {
		return 0, -1, nil
	}
	vocab := det.Vocabulary()
	clusters := det.Clusters()
	streams := make([]scorer.Stream, len(clusters))
	smoothed := make([]float64, len(clusters))
	warmMin := make([]float64, len(clusters))
	for i := range clusters {
		streams[i] = clusters[i].Model.NewStream()
		smoothed[i], warmMin[i] = -1, -1
	}
	for pos, a := range s.Actions {
		idx, err := vocab.Index(a)
		if err != nil {
			return 0, -1, fmt.Errorf("score %s: %w", s.ID, err)
		}
		for i := range streams {
			lik, err := scorer.ObserveLikelihood(streams[i], idx)
			if err != nil {
				return 0, -1, fmt.Errorf("score %s: %w", s.ID, err)
			}
			if lik < 0 {
				continue
			}
			if smoothed[i] < 0 {
				smoothed[i] = lik
			} else {
				smoothed[i] = base.EWMAAlpha*lik + (1-base.EWMAAlpha)*smoothed[i]
			}
			if pos >= base.WarmupActions && (warmMin[i] < 0 || smoothed[i] < warmMin[i]) {
				warmMin[i] = smoothed[i]
			}
		}
	}
	best, bestCluster := -1.0, -1
	for i := range warmMin {
		m := warmMin[i]
		if m < 0 {
			// Shorter than the warmup: fall back to the final smoothed
			// likelihood so short sessions are still rankable.
			m = smoothed[i]
		}
		if m >= 0 && m > best {
			best, bestCluster = m, i
		}
	}
	if bestCluster < 0 {
		return 0, -1, nil
	}
	return best, bestCluster, nil
}

// clusterReports groups the scored sessions by routed cluster and
// computes each cluster's ROC where both classes are present.
func clusterReports(clusters int, scored []sessionScore, calibrated core.MonitorConfig) []ClusterReport {
	normals := make([][]float64, clusters)
	anomalies := make([][]float64, clusters)
	for _, s := range scored {
		if s.cluster < 0 || s.cluster >= clusters {
			continue
		}
		if s.labeled.ExpectedAnomalous {
			anomalies[s.cluster] = append(anomalies[s.cluster], s.score)
		} else {
			normals[s.cluster] = append(normals[s.cluster], s.score)
		}
	}
	out := make([]ClusterReport, clusters)
	for c := range out {
		cr := ClusterReport{
			Cluster:   c,
			Normals:   len(normals[c]),
			Anomalies: len(anomalies[c]),
			AUC:       -1,
			Floor:     calibrated.LikelihoodFloor,
		}
		if c < len(calibrated.ClusterFloors) {
			cr.Floor = calibrated.ClusterFloors[c]
		}
		if cr.Normals > 0 && cr.Anomalies > 0 {
			if _, auc, err := metrics.ROC(normals[c], anomalies[c]); err == nil {
				cr.AUC = auc
			}
		}
		out[c] = cr
	}
	return out
}

// replayEngine replays the evaluation stream through a sharded engine
// configured with the calibrated thresholds and derives
// the alarm-level outcome: which sessions alarmed, and how many actions
// an anomalous session ran before its first alarm.
// replayEngine also returns each session's first alarm position so the
// caller can assemble per-scenario breakdowns from the same replay.
func replayEngine(det *core.Detector, monitor core.MonitorConfig, tr *Traffic, shards int) (ReplayReport, map[string]int, error) {
	engine, err := core.NewEngine(det, core.EngineConfig{
		Shards:  shards,
		Monitor: monitor,
	})
	if err != nil {
		return ReplayReport{}, nil, err
	}
	defer engine.Close()
	events := tr.Events()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	alarms, err := engine.Replay(ctx, events)
	if err != nil {
		return ReplayReport{}, nil, err
	}
	first := firstAlarms(alarms)
	return ReplayReport{
		Shards:    shards,
		Events:    len(events),
		Detection: foldFirstAlarms(first, tr.EvalSessions()),
	}, first, nil
}

// scenarioReports assembles the per-attack-class breakdown from the
// score-level operating point and the replay's first-alarm positions.
// Rows follow the logsim scenario registry order, then any remaining
// non-profile kinds (the random anomaly class); only kinds present in
// the evaluation split get a row.
func scenarioReports(eval []LabeledSession, scored []sessionScore, threshold float64, firstAlarm map[string]int) []ScenarioReport {
	type agg struct {
		ScenarioReport
		scoredSessions int
		flagged        int
		campaigns      map[string]bool
		detectedCamps  map[string]bool
		ttdSum         float64
	}
	byKind := make(map[string]*agg)
	get := func(kind string, benign bool) *agg {
		a, ok := byKind[kind]
		if !ok {
			a = &agg{
				ScenarioReport: ScenarioReport{Scenario: kind, Benign: benign},
				campaigns:      make(map[string]bool),
				detectedCamps:  make(map[string]bool),
			}
			byKind[kind] = a
		}
		return a
	}
	for _, l := range eval {
		if l.Kind == corpus.KindProfile {
			continue
		}
		a := get(l.Kind, !l.ExpectedAnomalous)
		a.Sessions++
		if l.Campaign != "" {
			a.campaigns[l.Campaign] = true
		}
		if pos, alarmed := firstAlarm[l.Session.ID]; alarmed {
			a.DetectedSessions++
			a.ttdSum += float64(pos + 1)
			if l.Campaign != "" {
				a.detectedCamps[l.Campaign] = true
			}
		}
	}
	for _, s := range scored {
		if s.labeled.Kind == corpus.KindProfile {
			continue
		}
		a := get(s.labeled.Kind, !s.labeled.ExpectedAnomalous)
		a.scoredSessions++
		if s.score < threshold {
			a.flagged++
		}
	}
	var order []string
	for _, sc := range logsim.AllScenarios() {
		order = append(order, sc.String())
	}
	var rest []string
	known := make(map[string]bool, len(order))
	for _, k := range order {
		known[k] = true
	}
	for kind := range byKind {
		if !known[kind] {
			rest = append(rest, kind)
		}
	}
	sort.Strings(rest)
	var out []ScenarioReport
	for _, kind := range append(order, rest...) {
		a, ok := byKind[kind]
		if !ok {
			continue
		}
		a.Campaigns = len(a.campaigns)
		a.DetectedCampaigns = len(a.detectedCamps)
		a.TPRAtBudget, a.FalseAlarmRate, a.MeanTimeToDetection = -1, -1, -1
		if a.Benign {
			if a.Sessions > 0 {
				a.FalseAlarmRate = float64(a.DetectedSessions) / float64(a.Sessions)
			}
		} else {
			if a.scoredSessions > 0 {
				a.TPRAtBudget = float64(a.flagged) / float64(a.scoredSessions)
			}
			if a.DetectedSessions > 0 {
				a.MeanTimeToDetection = a.ttdSum / float64(a.DetectedSessions)
			}
		}
		out = append(out, a.ScenarioReport)
	}
	return out
}
