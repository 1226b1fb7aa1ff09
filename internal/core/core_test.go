package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// testCorpus builds a tiny two-behavior corpus with an 8-action
// vocabulary: behavior A cycles actions 0-3, behavior B cycles 4-7.
func testCorpus(t testing.TB, perCluster int) (*actionlog.Vocabulary, []*actionlog.Session) {
	t.Helper()
	names := []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}
	vocab, err := actionlog.NewVocabulary(names)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var sessions []*actionlog.Session
	for c := 0; c < 2; c++ {
		for i := 0; i < perCluster; i++ {
			n := 6 + rng.Intn(8)
			actions := make([]string, n)
			start := rng.Intn(4)
			for j := range actions {
				actions[j] = names[c*4+(start+j)%4]
			}
			sessions = append(sessions, &actionlog.Session{
				ID:      names[c*4] + "-" + string(rune('0'+i%10)) + string(rune('a'+i/10)),
				User:    "u",
				Start:   time.Unix(int64(i), 0),
				Actions: actions,
				Cluster: c,
			})
		}
	}
	return vocab, sessions
}

// testConfig returns a tiny but complete pipeline configuration.
func testConfig(vocab int) Config {
	cfg := ScaledConfig(vocab, 2, 12, 25, 1)
	cfg.LM.Trainer.LearningRate = 0.01
	cfg.LM.Network.DropoutRate = 0
	cfg.RouteVoteActions = 5
	return cfg
}

// observeName resolves an action name through the detector's vocabulary
// and feeds the monitor: the test-side equivalent of the edge interning
// the serving engine performs.
func observeName(t testing.TB, d *Detector, mon *SessionMonitor, a string) MonitorStep {
	t.Helper()
	tok := d.Token(a)
	if tok < 0 {
		t.Fatalf("unknown action %q", a)
	}
	step, err := mon.ObserveToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	return step
}

func trainedDetector(t *testing.T) (*Detector, *actionlog.Vocabulary, []*actionlog.Session) {
	t.Helper()
	vocab, sessions := testCorpus(t, 30)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TrainDetector(testConfig(vocab.Size()), vocab, clusters, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, vocab, sessions
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(8)
	cfg.MinSessionLength = 1
	if err := cfg.validate(); err == nil {
		t.Fatal("MinSessionLength 1 must fail")
	}
	cfg = testConfig(8)
	cfg.RouteVoteActions = 0
	if err := cfg.validate(); err == nil {
		t.Fatal("RouteVoteActions 0 must fail")
	}
}

func TestClusterHistoryEndToEnd(t *testing.T) {
	vocab, sessions := testCorpus(t, 25)
	cfg := testConfig(vocab.Size())
	cl, err := ClusterHistory(cfg, vocab, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Selection.Groups) != 2 {
		t.Fatalf("got %d clusters, want 2", len(cl.Selection.Groups))
	}
	parts, err := cl.Partition()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != len(cl.Sessions) {
		t.Fatalf("partition covers %d of %d sessions", total, len(cl.Sessions))
	}
	// The informed clustering should essentially recover the two latent
	// behaviors: measure purity.
	correct := 0
	for _, p := range parts {
		counts := map[int]int{}
		for _, s := range p {
			counts[s.Cluster]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	if purity := float64(correct) / float64(total); purity < 0.9 {
		t.Fatalf("clustering purity %.2f < 0.9", purity)
	}
}

func TestClusterHistoryValidation(t *testing.T) {
	vocab, _ := testCorpus(t, 3)
	cfg := testConfig(vocab.Size())
	if _, err := ClusterHistory(cfg, vocab, nil); err == nil {
		t.Fatal("empty history must fail")
	}
	short := []*actionlog.Session{{ID: "x", Actions: []string{"a0"}}}
	if _, err := ClusterHistory(cfg, vocab, short); err == nil {
		t.Fatal("all-short history must fail")
	}
}

func TestGroundTruthClustering(t *testing.T) {
	_, sessions := testCorpus(t, 5)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 || len(clusters[0]) != 5 || len(clusters[1]) != 5 {
		t.Fatalf("cluster sizes: %d/%d", len(clusters[0]), len(clusters[1]))
	}
	unlabeled := []*actionlog.Session{{ID: "x", Cluster: -1, Actions: []string{"a", "b"}}}
	if _, err := GroundTruthClustering(unlabeled, 2); err == nil {
		t.Fatal("unlabeled sessions must fail")
	}
	if _, err := GroundTruthClustering(nil, 2); err == nil {
		t.Fatal("empty history must fail")
	}
}

func TestTrainDetectorAndRoute(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	if d.ClusterCount() != 2 {
		t.Fatalf("detector has %d clusters", d.ClusterCount())
	}
	// Routing should send cluster-0 sessions to the cluster-0 OC-SVM.
	correct, total := 0, 0
	for _, s := range sessions {
		encoded, err := vocab.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, scores, err := d.Route(encoded)
		if err != nil {
			t.Fatal(err)
		}
		if len(scores) != 2 {
			t.Fatalf("got %d route scores", len(scores))
		}
		if got == s.Cluster {
			correct++
		}
		total++
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Fatalf("routing accuracy %.2f < 0.95", acc)
	}
}

func TestRouteByVoteMatchesBehavior(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	correct := 0
	for _, s := range sessions[:20] {
		encoded, _ := vocab.Encode(s)
		got, err := d.RouteByVote(encoded)
		if err != nil {
			t.Fatal(err)
		}
		if got == s.Cluster {
			correct++
		}
	}
	if correct < 18 {
		t.Fatalf("vote routing correct on %d/20", correct)
	}
	if _, err := d.RouteByVote(nil); err == nil {
		t.Fatal("empty session must fail")
	}
}

// TestRouteByVoteMatchesMonitor pins the one vote implementation: for
// every corpus session, RouteByVote equals the cluster a SessionMonitor
// fed the session holds after its vote window, and both equal the vote
// recomputed from PrefixStream and ScoreSparse, the floating-point
// routing the table-driven router must reproduce exactly.
func TestRouteByVoteMatchesMonitor(t *testing.T) {
	d := trainCorpusNGram(t, 11)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	routed := make(map[int]int)
	for _, s := range c.ActionSessions() {
		encoded, err := d.Vocabulary().Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.RouteByVote(encoded)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := d.NewSessionMonitor(DefaultMonitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range encoded {
			if _, err := mon.ObserveToken(a); err != nil {
				t.Fatal(err)
			}
		}
		if mon.cluster != got {
			t.Fatalf("session %s: RouteByVote %d, monitor cluster %d", s.ID, got, mon.cluster)
		}
		if want := scoreSparseVote(t, d, encoded); got != want {
			t.Fatalf("session %s: RouteByVote %d, ScoreSparse vote %d", s.ID, got, want)
		}
		routed[got]++
	}
	if len(routed) < 2 {
		t.Fatalf("every session routed to one cluster (%v): the comparison is vacuous", routed)
	}
}

// scoreSparseVote is the first-K vote over PrefixStream and
// ScoreSparse, the reference for the router-driven vote.
func scoreSparseVote(t *testing.T, d *Detector, encoded []int) int {
	t.Helper()
	stream := d.Featurizer().Stream()
	votes := make([]int, d.ClusterCount())
	for _, a := range encoded[:min(len(encoded), d.Config().RouteVoteActions)] {
		x, err := stream.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		best, bestS := 0, math.Inf(-1)
		for i, cm := range d.Clusters() {
			s, err := cm.Router.ScoreSparse(x, stream.Support())
			if err != nil {
				t.Fatal(err)
			}
			if s > bestS {
				best, bestS = i, s
			}
		}
		votes[best]++
	}
	best, bestV := 0, -1
	for i, v := range votes {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func TestScoreSessionNormalVsRandom(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	normal := sessions[0]
	report, err := d.ScoreSession(normal)
	if err != nil {
		t.Fatal(err)
	}
	if report.SessionID != normal.ID {
		t.Fatal("report must echo the session ID")
	}
	random, err := logsim.RandomSessions(vocab, 1, 8, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	randReport, err := d.ScoreSession(random[0])
	if err != nil {
		t.Fatal(err)
	}
	if report.Score.AvgLikelihood <= randReport.Score.AvgLikelihood {
		t.Fatalf("normal likelihood %v <= random %v",
			report.Score.AvgLikelihood, randReport.Score.AvgLikelihood)
	}
	if report.Score.AvgLoss >= randReport.Score.AvgLoss {
		t.Fatalf("normal loss %v >= random %v", report.Score.AvgLoss, randReport.Score.AvgLoss)
	}
	short := &actionlog.Session{ID: "s", Actions: []string{"a0"}}
	if _, err := d.ScoreSession(short); err == nil {
		t.Fatal("short session must fail")
	}
}

func TestScoreWeighted(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	w, err := d.ScoreWeighted(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 || w > 1 {
		t.Fatalf("weighted score %v outside (0,1]", w)
	}
	random, _ := logsim.RandomSessions(vocab, 1, 8, 12, 5)
	wr, err := d.ScoreWeighted(random[0])
	if err != nil {
		t.Fatal(err)
	}
	if w <= wr {
		t.Fatalf("normal weighted %v <= random weighted %v", w, wr)
	}
}

func TestRankSuspiciousPutsMisuseFirst(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	random, err := logsim.RandomSessions(vocab, 5, 8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(append([]*actionlog.Session(nil), sessions[:20]...), random...)
	reports, err := d.RankSuspicious(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 25 {
		t.Fatalf("ranked %d of 25", len(reports))
	}
	// The 5 random sessions should dominate the most-suspicious prefix.
	randomInTop := 0
	for _, r := range reports[:5] {
		if len(r.SessionID) >= 6 && r.SessionID[:6] == "random" {
			randomInTop++
		}
	}
	if randomInTop < 4 {
		t.Fatalf("only %d/5 top-suspicious are the random sessions", randomInTop)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i-1].Score.AvgLikelihood > reports[i].Score.AvgLikelihood {
			t.Fatal("reports not sorted ascending by likelihood")
		}
	}
}

func TestSessionMonitorNormalSessionQuiet(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	_ = vocab
	mon, err := d.NewSessionMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	alarms := 0
	for _, a := range sessions[0].Actions {
		step := observeName(t, d, mon, a)
		alarms += len(step.Alarms)
	}
	if alarms > 0 {
		t.Fatalf("normal session raised %d alarms", alarms)
	}
	if mon.cluster != sessions[0].Cluster {
		t.Fatalf("monitor routed to %d, want %d", mon.cluster, sessions[0].Cluster)
	}
	if mon.position != sessions[0].Len() {
		t.Fatalf("position %d after %d actions", mon.position, sessions[0].Len())
	}
}

func TestSessionMonitorAlarmsOnAnomaly(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	mon, err := d.NewSessionMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Start like a normal cluster-0 session, then switch to uniform noise.
	prefix := sessions[0].Actions
	rng := rand.New(rand.NewSource(23))
	names := vocab.Actions()
	alarms := 0
	for _, a := range prefix {
		observeName(t, d, mon, a)
	}
	for i := 0; i < 30; i++ {
		step := observeName(t, d, mon, names[rng.Intn(len(names))])
		alarms += len(step.Alarms)
	}
	if alarms == 0 {
		t.Fatal("random tail raised no alarms")
	}
}

func TestSessionMonitorValidation(t *testing.T) {
	d, _, _ := trainedDetector(t)
	bad := DefaultMonitorConfig()
	bad.EWMAAlpha = 0
	if _, err := d.NewSessionMonitor(bad); err == nil {
		t.Fatal("bad EWMAAlpha must fail")
	}
	bad = DefaultMonitorConfig()
	bad.LikelihoodFloor = 2
	if _, err := d.NewSessionMonitor(bad); err == nil {
		t.Fatal("bad floor must fail")
	}
	bad = DefaultMonitorConfig()
	bad.TrendDrop = 1
	if _, err := d.NewSessionMonitor(bad); err == nil {
		t.Fatal("bad trend drop must fail")
	}
	if d.Token("no-such-action") != actionlog.TokenUnknown {
		t.Fatal("unknown action must resolve to TokenUnknown")
	}
	mon, _ := d.NewSessionMonitor(DefaultMonitorConfig())
	if _, err := mon.ObserveToken(d.Vocabulary().Size()); err == nil {
		t.Fatal("out-of-range token must fail")
	}
}

func TestAlarmKindString(t *testing.T) {
	if AlarmLowLikelihood.String() != "low-likelihood" {
		t.Fatal(AlarmLowLikelihood.String())
	}
	if AlarmDownwardTrend.String() != "downward-trend" {
		t.Fatal(AlarmDownwardTrend.String())
	}
	if AlarmKind(9).String() == "" {
		t.Fatal("unknown kind must format")
	}
}

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	d, vocab, sessions := trainedDetector(t)
	dir := filepath.Join(t.TempDir(), "model")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDetector(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.ClusterCount() != d.ClusterCount() {
		t.Fatal("cluster count changed")
	}
	if back.Vocabulary().Size() != vocab.Size() {
		t.Fatal("vocabulary changed")
	}
	// Identical scoring.
	a, err := d.ScoreSession(sessions[3])
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ScoreSession(sessions[3])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("loaded detector scores differently:\n%+v\n%+v", a, b)
	}
	if _, err := LoadDetector(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir must fail")
	}
}

func TestTrainDetectorValidation(t *testing.T) {
	vocab, _ := testCorpus(t, 3)
	cfg := testConfig(vocab.Size())
	if _, err := TrainDetector(cfg, vocab, nil, nil); err == nil {
		t.Fatal("no clusters must fail")
	}
	empty := [][]*actionlog.Session{{}}
	if _, err := TrainDetector(cfg, vocab, empty, nil); err == nil {
		t.Fatal("empty cluster must fail")
	}
}

func TestCalibrateMonitorPerCluster(t *testing.T) {
	d, _, sessions := trainedDetector(t)
	cfg, err := d.CalibrateMonitorPerCluster(DefaultMonitorConfig(), sessions, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.ClusterFloors) != d.ClusterCount() {
		t.Fatalf("got %d cluster floors for %d clusters", len(cfg.ClusterFloors), d.ClusterCount())
	}
	for c, f := range cfg.ClusterFloors {
		if f <= 0 || f >= 1 {
			t.Fatalf("cluster %d floor %v out of range", c, f)
		}
	}
	if cfg.LikelihoodFloor <= 0 {
		t.Fatalf("global fallback floor %v not set", cfg.LikelihoodFloor)
	}
	// The calibrated config must respect the budget on its own
	// calibration split: well under half the sessions may alarm at 10%.
	fired := 0
	for _, s := range sessions {
		mon, err := d.NewSessionMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessionFired := false
		for _, a := range s.Actions {
			step := observeName(t, d, mon, a)
			for _, k := range step.Alarms {
				if k == AlarmLowLikelihood {
					sessionFired = true
				}
			}
		}
		if sessionFired {
			fired++
		}
	}
	if frac := float64(fired) / float64(len(sessions)); frac > 0.35 {
		t.Fatalf("per-cluster calibrated false-alarm fraction %v far above target 0.1", frac)
	}
	// A huge minSessions forces the global fallback everywhere.
	fall, err := d.CalibrateMonitorPerCluster(DefaultMonitorConfig(), sessions, 0.1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for c, f := range fall.ClusterFloors {
		if f != fall.LikelihoodFloor {
			t.Fatalf("cluster %d floor %v, want global fallback %v", c, f, fall.LikelihoodFloor)
		}
	}
	if _, err := d.CalibrateMonitorPerCluster(DefaultMonitorConfig(), sessions, 0, 2); err == nil {
		t.Fatal("zero FPR must fail")
	}
	if _, err := d.CalibrateMonitorPerCluster(DefaultMonitorConfig(), nil, 0.1, 2); err == nil {
		t.Fatal("no validation sessions must fail")
	}
}

func TestMonitorClusterFloors(t *testing.T) {
	d, _, sessions := trainedDetector(t)
	// Give the session's own cluster an impossible floor of 1: every
	// post-warmup action must alarm even though the global floor is 0.
	s := sessions[0]
	cfg := DefaultMonitorConfig()
	cfg.LikelihoodFloor = 0
	cfg.TrendWindow = 0
	cfg.ClusterFloors = make([]float64, d.ClusterCount())
	cfg.ClusterFloors[s.Cluster] = 1
	mon, err := d.NewSessionMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alarms := 0
	for _, a := range s.Actions {
		step := observeName(t, d, mon, a)
		alarms += len(step.Alarms)
	}
	if alarms == 0 {
		t.Fatal("cluster floor 1 raised no alarms: per-cluster floor not applied")
	}
	// Validation: out-of-range floors fail.
	bad := DefaultMonitorConfig()
	bad.ClusterFloors = []float64{0.5, 1.5}
	if _, err := d.NewSessionMonitor(bad); err == nil {
		t.Fatal("out-of-range cluster floor must fail")
	}
}

func TestMonitorConfigFragmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "thresholds.json")
	cfg := DefaultMonitorConfig()
	cfg.LikelihoodFloor = 0.0125
	cfg.ClusterFloors = []float64{0.01, 0.02, 0.03}
	if err := SaveMonitorConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := LoadMonitorConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.LikelihoodFloor != cfg.LikelihoodFloor || len(back.ClusterFloors) != 3 || back.ClusterFloors[2] != 0.03 {
		t.Fatalf("fragment round trip changed the config: %+v", back)
	}
	if back.EWMAAlpha != cfg.EWMAAlpha || back.WarmupActions != cfg.WarmupActions {
		t.Fatalf("fragment round trip lost base fields: %+v", back)
	}
	// A partial fragment keeps defaults for the missing fields.
	if err := os.WriteFile(path, []byte(`{"likelihood_floor": 0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	partial, err := LoadMonitorConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultMonitorConfig()
	if partial.LikelihoodFloor != 0.5 || partial.EWMAAlpha != def.EWMAAlpha || partial.TrendWindow != def.TrendWindow {
		t.Fatalf("partial fragment %+v does not overlay defaults", partial)
	}
	// Invalid fragments fail loudly.
	if err := os.WriteFile(path, []byte(`{"likelihood_floor": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMonitorConfig(path); err == nil {
		t.Fatal("out-of-range fragment must fail")
	}
	if err := os.WriteFile(path, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMonitorConfig(path); err == nil {
		t.Fatal("malformed fragment must fail")
	}
	if _, err := LoadMonitorConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing fragment must fail")
	}
}

func TestCalibrateMonitor(t *testing.T) {
	d, _, sessions := trainedDetector(t)
	cfg, err := d.CalibrateMonitorPerCluster(DefaultMonitorConfig(), sessions[:30], 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LikelihoodFloor <= 0 || cfg.LikelihoodFloor >= 1 {
		t.Fatalf("calibrated floor %v out of range", cfg.LikelihoodFloor)
	}
	// LikelihoodFloor is the global quantile: on its own, roughly
	// targetFPR of the validation sessions dip below it.
	cfg.ClusterFloors = nil
	below := 0
	usable := 0
	for _, s := range sessions[:30] {
		mon, err := d.NewSessionMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fired := false
		for _, a := range s.Actions {
			step := observeName(t, d, mon, a)
			for _, k := range step.Alarms {
				if k == AlarmLowLikelihood {
					fired = true
				}
			}
		}
		usable++
		if fired {
			below++
		}
	}
	frac := float64(below) / float64(usable)
	if frac > 0.35 {
		t.Fatalf("calibrated false-alarm fraction %v far above target 0.1", frac)
	}
	// Validation of inputs.
	if _, err := d.CalibrateMonitorPerCluster(DefaultMonitorConfig(), sessions[:5], 0, 0); err == nil {
		t.Fatal("zero FPR must fail")
	}
	if _, err := d.CalibrateMonitorPerCluster(DefaultMonitorConfig(), nil, 0.1, 0); err == nil {
		t.Fatal("no validation sessions must fail")
	}
	bad := DefaultMonitorConfig()
	bad.EWMAAlpha = 0
	if _, err := d.CalibrateMonitorPerCluster(bad, sessions[:5], 0.1, 0); err == nil {
		t.Fatal("bad base config must fail")
	}
}
