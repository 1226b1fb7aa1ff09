package harness

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/corpus"
	"misusedetect/internal/lm"
	"misusedetect/internal/logsim"
)

func TestCorpusTrafficShape(t *testing.T) {
	tr, err := CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Source != "corpus" {
		t.Fatalf("source %q", tr.Source)
	}
	profiles := len(logsim.DefaultProfiles())
	if len(tr.Train) != profiles {
		t.Fatalf("%d training clusters, want %d", len(tr.Train), profiles)
	}
	// Holdout: two per cluster plus the benign flash-crowd surge.
	if len(tr.Holdout) <= 2*profiles {
		t.Fatalf("%d holdout sessions, want > %d (per-cluster holdout plus flash-crowd)", len(tr.Holdout), 2*profiles)
	}
	if len(tr.Anomalies) == 0 {
		t.Fatal("no anomalies")
	}
	flash := 0
	for _, l := range tr.Holdout {
		if l.ExpectedAnomalous {
			t.Fatalf("holdout session %s labeled anomalous", l.Session.ID)
		}
		switch l.Kind {
		case corpus.KindProfile:
		case corpus.KindFlashCrowd:
			if l.Campaign == "" {
				t.Fatalf("flash-crowd holdout %s has no campaign tag", l.Session.ID)
			}
			flash++
		default:
			t.Fatalf("holdout session %s labeled %q", l.Session.ID, l.Kind)
		}
	}
	if flash < 2 {
		t.Fatalf("%d flash-crowd holdout sessions, want >= 2", flash)
	}
	kinds := make(map[string]bool)
	campaignKinds := make(map[string]bool)
	for _, l := range tr.Anomalies {
		if !l.ExpectedAnomalous {
			t.Fatalf("anomaly %s not labeled anomalous", l.Session.ID)
		}
		kinds[l.Kind] = true
		if l.Campaign != "" {
			campaignKinds[l.Kind] = true
		}
	}
	for _, k := range corpus.AnomalyKinds() {
		if !kinds[k] {
			t.Errorf("anomaly kind %q missing from corpus traffic", k)
		}
	}
	for _, k := range []string{corpus.KindLowAndSlow, corpus.KindCoordinated} {
		if !campaignKinds[k] {
			t.Errorf("multi-session kind %q lost its campaign tags", k)
		}
	}
	// The flattened evaluation stream is deterministic.
	a, b := tr.Events(), tr.Events()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("event stream lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across derivations", i)
		}
	}
	// Holding out everything must fail loudly.
	if _, err := CorpusTraffic(100); err == nil {
		t.Fatal("oversized holdout must fail")
	}
	if _, err := CorpusTraffic(0); err == nil {
		t.Fatal("zero holdout must fail")
	}
}

func TestSimTrafficShape(t *testing.T) {
	tr, err := SimTraffic(SimConfig{Seed: 3, Divisor: 150, RandomSessions: 8, MisuseSessions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Source != "logsim" {
		t.Fatalf("source %q", tr.Source)
	}
	if len(tr.Train) == 0 || len(tr.Holdout) == 0 {
		t.Fatalf("train %d holdout %d", len(tr.Train), len(tr.Holdout))
	}
	kinds := make(map[string]int)
	for _, l := range tr.Anomalies {
		kinds[l.Kind]++
	}
	if kinds[corpus.KindRandom] != 8 {
		t.Fatalf("%d random anomalies, want 8", kinds[corpus.KindRandom])
	}
	// Every anomalous scenario in the registry must contribute.
	for _, sc := range logsim.AllScenarios() {
		if !sc.Anomalous() {
			continue
		}
		if kinds[sc.String()] == 0 {
			t.Errorf("misuse scenario %s missing", sc)
		}
	}
	// The benign flash-crowd surge lands in the holdout, campaign-tagged.
	flash := 0
	for _, l := range tr.Holdout {
		if l.Kind == corpus.KindFlashCrowd {
			if l.ExpectedAnomalous || l.Campaign == "" {
				t.Fatalf("flash-crowd holdout %s mislabeled: %v %q", l.Session.ID, l.ExpectedAnomalous, l.Campaign)
			}
			flash++
		}
	}
	if flash < 2 {
		t.Errorf("%d flash-crowd holdout sessions, want >= 2", flash)
	}
	// Disabling a family with -1 removes it without reshuffling others.
	none, err := SimTraffic(SimConfig{Seed: 3, Divisor: 150, RandomSessions: 8, MisuseSessions: 6, FlashCrowds: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range none.Holdout {
		if l.Kind == corpus.KindFlashCrowd {
			t.Fatal("FlashCrowds: -1 still generated surge sessions")
		}
	}
	if _, err := SimTraffic(SimConfig{Seed: 1, HoldoutFrac: 1.5}); err == nil {
		t.Fatal("bad holdout fraction must fail")
	}
}

// TestEvalCorpusClassicalBackends is the harness's own acceptance
// anchor: on the embedded corpus, both classical backends must separate
// anomalies from held-out normals well above chance, calibration must
// hold the false-alarm budget on its own split, and the engine replay
// must catch anomalous sessions end to end.
func TestEvalCorpusClassicalBackends(t *testing.T) {
	tr, err := CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Eval(tr, EvalOptions{
		Backends: []string{baseline.BackendNGram, baseline.BackendHMM},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.ClusterCount != len(tr.Train) || report.HoldoutSessions != len(tr.Holdout) {
		t.Fatalf("report header %+v does not match traffic", report)
	}
	for _, br := range report.Backends {
		if br.AUC <= 0.6 {
			t.Errorf("%s AUC %.3f <= 0.6", br.Backend, br.AUC)
		}
		if br.TPRAtBudget <= 0 {
			t.Errorf("%s TPR@%.0f%%FPR = %v, want > 0", br.Backend, br.FPRBudget*100, br.TPRAtBudget)
		}
		if br.Calibrated.LikelihoodFloor <= 0 || br.Calibrated.LikelihoodFloor >= 1 {
			t.Errorf("%s calibrated floor %v out of range", br.Backend, br.Calibrated.LikelihoodFloor)
		}
		if br.Recall < br.TPRAtBudget-1e-9 {
			t.Errorf("%s recall %v below TPR %v at the same operating point", br.Backend, br.Recall, br.TPRAtBudget)
		}
		if len(br.Calibrated.ClusterFloors) != report.ClusterCount {
			t.Errorf("%s calibrated %d cluster floors for %d clusters",
				br.Backend, len(br.Calibrated.ClusterFloors), report.ClusterCount)
		}
		if len(br.Clusters) != report.ClusterCount {
			t.Errorf("%s has %d cluster reports", br.Backend, len(br.Clusters))
		}
		rp := br.Replay
		if rp.Events == 0 || rp.AnomalySessions != br.AnomalySessions {
			t.Errorf("%s replay shape %+v", br.Backend, rp)
		}
		if rp.DetectedAnomalies == 0 {
			t.Errorf("%s replay detected no anomalies at the calibrated floor", br.Backend)
		}
		if rp.MeanTimeToDetection <= 0 {
			t.Errorf("%s mean time-to-detection %v", br.Backend, rp.MeanTimeToDetection)
		}
		// The calibrated floor must roughly hold the budget on the very
		// split it was calibrated on (quantile semantics allow slack on
		// 26 sessions, but half the normals alarming would be broken).
		if rp.AlarmedNormals*2 > rp.NormalSessions {
			t.Errorf("%s replay alarmed %d of %d normals at a %.0f%% budget",
				br.Backend, rp.AlarmedNormals, rp.NormalSessions, br.FPRBudget*100)
		}
	}
	// The report is JSON-serializable and the calibrated fragment loads
	// back through the core loader: the eval output IS deployable config.
	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty report JSON")
	}
	path := filepath.Join(t.TempDir(), "thresholds.json")
	if err := core.SaveMonitorConfig(path, report.Backends[0].Calibrated); err != nil {
		t.Fatal(err)
	}
	back, err := core.LoadMonitorConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.LikelihoodFloor != report.Backends[0].Calibrated.LikelihoodFloor {
		t.Fatalf("fragment floor %v, report floor %v", back.LikelihoodFloor, report.Backends[0].Calibrated.LikelihoodFloor)
	}
}

// TestEvalCorpusLSTM anchors the paper's own backend: above-chance
// separation on the embedded corpus with a deliberately small model.
func TestEvalCorpusLSTM(t *testing.T) {
	tr, err := CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Eval(tr, EvalOptions{
		Backends: []string{lm.BackendLSTM},
		Hidden:   8,
		Epochs:   2,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	br := report.Backends[0]
	if br.AUC <= 0.5 {
		t.Errorf("lstm AUC %.3f <= 0.5", br.AUC)
	}
	if br.Replay.DetectedAnomalies == 0 {
		t.Errorf("lstm replay detected no anomalies")
	}
}

func TestEvalValidation(t *testing.T) {
	tr, err := CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	empty := &Traffic{Source: "x", Vocab: tr.Vocab, Train: tr.Train}
	if _, err := Eval(empty, EvalOptions{Backends: []string{"ngram"}}); err == nil {
		t.Fatal("eval without holdout/anomalies must fail")
	}
	if _, err := Eval(tr, EvalOptions{Backends: []string{"no-such-backend"}}); err == nil {
		t.Fatal("unknown backend must fail")
	}
}
