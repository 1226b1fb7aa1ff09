package rollout

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/harness"
	"misusedetect/internal/logsim"
)

// testDetector trains a fast ngram detector with calibrated per-cluster
// floors on a fresh simulated workload.
func testDetector(t *testing.T) (*harness.Traffic, *core.Detector, core.MonitorConfig) {
	t.Helper()
	tr, err := harness.SimTraffic(harness.SimConfig{Seed: 11, Divisor: 50})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ScaledConfig(tr.Vocab.Size(), len(tr.Train), 8, 2, 11)
	cfg.Backend = baseline.BackendNGram
	det, err := core.TrainDetector(cfg, tr.Vocab, tr.Train, nil)
	if err != nil {
		t.Fatal(err)
	}
	validation := make([]*actionlog.Session, len(tr.Holdout))
	for i, l := range tr.Holdout {
		validation[i] = l.Session
	}
	calibrated, err := det.CalibrateMonitorPerCluster(core.DefaultMonitorConfig(), validation, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr, det, calibrated
}

// fakeCandidateDir creates a directory standing in for a candidate's
// on-disk model artifact, with a marker file so the test can follow it
// into quarantine.
func fakeCandidateDir(t *testing.T, parent string) string {
	t.Helper()
	dir := filepath.Join(parent, "gen-0002")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "marker"), []byte("candidate"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sum fabricates one finished-session summary for the comparator.
func sum(id string, canary bool, version uint64, alarms int, minSmoothed float64) core.SessionSummary {
	return core.SessionSummary{
		SessionID:    id,
		Canary:       canary,
		ModelVersion: version,
		Alarms:       alarms,
		MinSmoothed:  minSmoothed,
	}
}

func TestControllerConfigValidation(t *testing.T) {
	_, det, _ := testDetector(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(nil, Config{}); err == nil {
		t.Fatal("nil registry must fail")
	}
	if _, err := NewController(reg, Config{Fraction: 1.5}); err == nil {
		t.Fatal("fraction outside (0,1) must fail")
	}
	if _, err := NewController(reg, Config{MinSessions: -1}); err == nil {
		t.Fatal("negative MinSessions must fail")
	}
	ctrl, err := NewController(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Fraction() != 0.1 {
		t.Fatalf("default fraction = %v", ctrl.Fraction())
	}
}

// TestControllerAutoRollback drives the comparator into its alarm-rate
// rollback: the canary arm alarms on every session, so at the moment
// both arms reach MinSessions the candidate is rolled back, its version
// never serves, and its directory lands in quarantine with the verdict
// recorded inside.
func TestControllerAutoRollback(t *testing.T) {
	_, det, _ := testDetector(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	candDir := fakeCandidateDir(t, parent)
	ctrl, err := NewController(reg, Config{Fraction: 0.3, MinSessions: 20, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cand, err := ctrl.Publish(det, nil, "test", candDir)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Version != 2 || !ctrl.Active() {
		t.Fatalf("publish: version %d active %v", cand.Version, ctrl.Active())
	}
	// A second publish while the first is pending must be refused.
	if _, err := ctrl.Publish(det, nil, "test2", ""); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("double publish = %v", err)
	}

	// Summaries from unrelated generations must not count.
	ctrl.OnSessionEnd(sum("old", false, 99, 0, 0.5))
	ctrl.OnSessionEnd(sum("flag-mismatch", true, 1, 0, 0.5))
	if st := ctrl.Status(); st.Serving.Sessions != 0 || st.Canary.Sessions != 0 {
		t.Fatalf("unrelated summaries counted: %+v", st)
	}

	for i := 0; i < 20; i++ {
		ctrl.OnSessionEnd(sum(fmt.Sprintf("s-%d", i), false, 1, 0, 0.5))
	}
	for i := 0; i < 19; i++ {
		ctrl.OnSessionEnd(sum(fmt.Sprintf("c-%d", i), true, 2, 1, 0.5))
	}
	if !ctrl.Active() {
		t.Fatal("verdict rendered before both arms reached MinSessions")
	}
	ctrl.OnSessionEnd(sum("c-19", true, 2, 1, 0.5))

	if ctrl.Active() {
		t.Fatal("no verdict after both arms reached MinSessions")
	}
	if reg.Current().Version != 1 {
		t.Fatalf("rollback moved serving to version %d", reg.Current().Version)
	}
	if mv, _ := reg.Canary(); mv != nil {
		t.Fatal("rollback left the registry canary slot occupied")
	}
	st := ctrl.Status()
	if st.Verdicts != 1 || st.LastVerdict == nil || st.LastVerdict.Decision != "rollback" {
		t.Fatalf("status after rollback: %+v", st)
	}
	if !strings.Contains(st.LastVerdict.Reason, "alarm rate") {
		t.Fatalf("rollback reason %q does not name the alarm rate", st.LastVerdict.Reason)
	}
	// The candidate directory moved under the default quarantine sibling,
	// marker and all, with the verdict recorded inside.
	wantDest := filepath.Join(parent, "quarantine", "gen-0002")
	if st.LastVerdict.QuarantinedDir != wantDest {
		t.Fatalf("quarantined dir = %q, want %q", st.LastVerdict.QuarantinedDir, wantDest)
	}
	if _, err := os.Stat(candDir); !os.IsNotExist(err) {
		t.Fatal("candidate dir still in place after quarantine")
	}
	if _, err := os.Stat(filepath.Join(wantDest, "marker")); err != nil {
		t.Fatalf("candidate contents did not move: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(wantDest, VerdictFile))
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Decision != "rollback" || v.CandidateVersion != 2 || v.Canary.Sessions != 20 {
		t.Fatalf("persisted verdict = %+v", v)
	}

	// The controller is idle again: late summaries are ignored, and a new
	// candidate can be published.
	ctrl.OnSessionEnd(sum("late", true, 2, 1, 0.5))
	if st := ctrl.Status(); st.Verdicts != 1 {
		t.Fatalf("late summary re-decided: %+v", st)
	}
	if _, err := ctrl.Publish(det, nil, "again", ""); err != nil {
		t.Fatalf("publish after rollback: %v", err)
	}
}

// TestControllerMeanDropRollback: equal alarm rates, but the canary
// arm's likelihoods sit far below serving — the mean-drop rule fires.
func TestControllerMeanDropRollback(t *testing.T) {
	_, det, _ := testDetector(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(reg, Config{Fraction: 0.3, MinSessions: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Publish(det, nil, "test", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ctrl.OnSessionEnd(sum(fmt.Sprintf("s-%d", i), false, 1, 0, 0.5+0.01*float64(i)))
	}
	for i := 0; i < 10; i++ {
		ctrl.OnSessionEnd(sum(fmt.Sprintf("c-%d", i), true, 2, 0, 0.2+0.01*float64(i)))
	}
	st := ctrl.Status()
	if ctrl.Active() || st.LastVerdict == nil || st.LastVerdict.Decision != "rollback" {
		t.Fatalf("mean drop not rolled back: %+v", st.LastVerdict)
	}
	if !strings.Contains(st.LastVerdict.Reason, "mean likelihood") {
		t.Fatalf("reason %q does not name the mean drop", st.LastVerdict.Reason)
	}
	if reg.Current().Version != 1 {
		t.Fatal("serving generation moved")
	}
}

// TestControllerKSRollback: alarm rates and means inside tolerance, but
// the canary's likelihood distribution collapses to a point below the
// serving spread — only the KS shape test can catch it.
func TestControllerKSRollback(t *testing.T) {
	_, det, _ := testDetector(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(reg, Config{Fraction: 0.3, MinSessions: 30, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Publish(det, nil, "test", ""); err != nil {
		t.Fatal(err)
	}
	// Serving spread uniformly over [0.40, 0.60); canary constant at
	// 0.45: mean drop is 10% (inside the 25% tolerance) with equal alarm
	// rates, but the empirical CDFs differ by ~0.75.
	for i := 0; i < 30; i++ {
		ctrl.OnSessionEnd(sum(fmt.Sprintf("s-%d", i), false, 1, 0, 0.40+0.2*float64(i)/30))
	}
	for i := 0; i < 30; i++ {
		ctrl.OnSessionEnd(sum(fmt.Sprintf("c-%d", i), true, 2, 0, 0.45))
	}
	st := ctrl.Status()
	if ctrl.Active() || st.LastVerdict == nil || st.LastVerdict.Decision != "rollback" {
		t.Fatalf("KS divergence not rolled back: %+v", st.LastVerdict)
	}
	if !strings.Contains(st.LastVerdict.Reason, "KS") {
		t.Fatalf("reason %q does not name the KS test", st.LastVerdict.Reason)
	}
}

// TestControllerAutoPromote: a healthy canary arm (matching alarm rate
// and likelihoods) is promoted to serving once both arms have evidence.
func TestControllerAutoPromote(t *testing.T) {
	_, det, _ := testDetector(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	candDir := fakeCandidateDir(t, t.TempDir())
	ctrl, err := NewController(reg, Config{Fraction: 0.3, MinSessions: 15, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Publish(det, nil, "test", candDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		ctrl.OnSessionEnd(sum(fmt.Sprintf("s-%d", i), false, 1, 0, 0.5+0.01*float64(i%5)))
		ctrl.OnSessionEnd(sum(fmt.Sprintf("c-%d", i), true, 2, 0, 0.5+0.01*float64(i%5)))
	}
	if ctrl.Active() {
		t.Fatal("healthy canary never decided")
	}
	if reg.Current().Version != 2 {
		t.Fatalf("promotion did not install the candidate: serving %d", reg.Current().Version)
	}
	st := ctrl.Status()
	if st.LastVerdict == nil || st.LastVerdict.Decision != "promote" || st.LastVerdict.QuarantinedDir != "" {
		t.Fatalf("verdict after promote: %+v", st.LastVerdict)
	}
	// A promoted candidate's directory stays exactly where it is.
	if _, err := os.Stat(filepath.Join(candDir, "marker")); err != nil {
		t.Fatalf("promotion touched the candidate dir: %v", err)
	}
}

// TestControllerOperatorOverride: forced promote and rollback decide a
// pending candidate immediately, whatever the comparator has seen.
func TestControllerOperatorOverride(t *testing.T) {
	_, det, _ := testDetector(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(reg, Config{Fraction: 0.3, MinSessions: 1000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Promote(); err == nil {
		t.Fatal("promote with nothing pending must fail")
	}
	if _, err := ctrl.Rollback(); err == nil {
		t.Fatal("rollback with nothing pending must fail")
	}

	if _, err := ctrl.Publish(det, nil, "test", ""); err != nil {
		t.Fatal(err)
	}
	ctrl.OnSessionEnd(sum("s-0", false, 1, 0, 0.5))
	v, err := ctrl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "promote" || !strings.Contains(v.Reason, "operator promote") {
		t.Fatalf("forced verdict = %+v", v)
	}
	if reg.Current().Version != 2 || ctrl.Active() {
		t.Fatal("forced promote did not install the candidate")
	}

	candDir := fakeCandidateDir(t, t.TempDir())
	if _, err := ctrl.Publish(det, nil, "test2", candDir); err != nil {
		t.Fatal(err)
	}
	v, err = ctrl.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "rollback" || !strings.Contains(v.Reason, "operator rollback") {
		t.Fatalf("forced verdict = %+v", v)
	}
	if reg.Current().Version != 2 {
		t.Fatal("forced rollback moved the serving generation")
	}
	if v.QuarantinedDir == "" {
		t.Fatal("forced rollback did not quarantine the candidate dir")
	}
	if _, err := os.Stat(filepath.Join(v.QuarantinedDir, VerdictFile)); err != nil {
		t.Fatalf("quarantined verdict missing: %v", err)
	}
}

// TestCanaryEndToEnd is the acceptance path: real engine traffic split
// across arms by the registry's deterministic assignment. A regressed
// candidate (alarm floors pinned near 1, so canary sessions alarm) is
// auto-rolled-back with serving untouched, its directory quarantined,
// and zero dropped events; a healthy candidate is then promoted, with
// both arms having carried traffic.
func TestCanaryEndToEnd(t *testing.T) {
	_, det, calibrated := testDetector(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	// MinSessions large enough that the arm means are stable: with ~half
	// the sessions too short to score past warmup, 60 sessions yield
	// ~25-30 likelihood samples per arm. The arms carry *different*
	// sessions (hash split), so even identical generations show a few
	// points of alarm-rate and mean spread from arm composition alone;
	// the slack/tolerance sit above that noise floor and far below the
	// regressed candidate's ~45-point alarm-rate signal.
	ctrl, err := NewController(reg, Config{
		Fraction:          0.5,
		MinSessions:       60,
		AlarmSlack:        0.15,
		MeanDropTolerance: 0.35,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngineRegistry(reg, core.EngineConfig{
		Shards:       3,
		Monitor:      calibrated,
		OnSessionEnd: ctrl.OnSessionEnd,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	replayWave := func(seed int64, prefix string) {
		t.Helper()
		sim, err := logsim.Generate(logsim.ScaledConfig(seed, 120))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for _, s := range actionlog.FilterMinLength(sim.Sessions, 2) {
			c := s.Clone()
			c.ID = fmt.Sprintf("%s-%s", prefix, s.ID)
			var evs []core.BatchEvent
			for _, ev := range actionlog.Flatten([]*actionlog.Session{c}) {
				evs = append(evs, core.BatchEvent{Ev: ev, Tok: engine.Interner().Intern(ev.Action)})
			}
			if err := engine.SubmitTokens(ctx, evs, nil); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		if err := engine.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		engine.Flush()
	}

	// Phase 1: regressed candidate — same weights, but alarm floors
	// pinned at 0.99, so essentially every canary session alarms.
	parent := t.TempDir()
	badDir := filepath.Join(parent, "gen-0002")
	if err := det.Save(badDir); err != nil {
		t.Fatal(err)
	}
	regressed := calibrated
	regressed.ClusterFloors = nil
	regressed.LikelihoodFloor = 0.99
	if _, err := ctrl.Publish(det, &regressed, "regressed", badDir); err != nil {
		t.Fatal(err)
	}
	for seed := int64(100); ctrl.Active() && seed < 140; seed++ {
		replayWave(seed, fmt.Sprintf("p1-%d", seed))
	}
	if ctrl.Active() {
		t.Fatalf("comparator never decided the regressed candidate: %+v", ctrl.Status())
	}
	st := ctrl.Status()
	if st.LastVerdict.Decision != "rollback" {
		t.Fatalf("regressed candidate not rolled back: %+v", st.LastVerdict)
	}
	if reg.Current().Version != 1 {
		t.Fatalf("rollback changed the serving generation to %d", reg.Current().Version)
	}
	if _, err := os.Stat(badDir); !os.IsNotExist(err) {
		t.Fatal("regressed candidate dir not quarantined")
	}
	if _, err := os.Stat(filepath.Join(parent, "quarantine", "gen-0002", VerdictFile)); err != nil {
		t.Fatalf("quarantined verdict missing: %v", err)
	}
	stats := engine.Stats()
	if stats.EventsProcessed != stats.EventsSubmitted || stats.EventsInFlight != 0 {
		t.Fatalf("dropped events during rollback: %+v", stats)
	}
	if stats.CanarySessions == 0 || stats.CanaryAlarms == 0 {
		t.Fatalf("engine canary counters never moved: %+v", stats)
	}

	// Phase 2: healthy candidate — same weights under the calibrated
	// floors — must be promoted, with both arms under traffic.
	goodDir := filepath.Join(parent, "gen-0003")
	if err := det.Save(goodDir); err != nil {
		t.Fatal(err)
	}
	healthy := calibrated
	if _, err := ctrl.Publish(det, &healthy, "healthy", goodDir); err != nil {
		t.Fatal(err)
	}
	for seed := int64(200); ctrl.Active() && seed < 240; seed++ {
		replayWave(seed, fmt.Sprintf("p2-%d", seed))
	}
	if ctrl.Active() {
		t.Fatalf("comparator never decided the healthy candidate: %+v", ctrl.Status())
	}
	st = ctrl.Status()
	if st.LastVerdict.Decision != "promote" {
		t.Fatalf("healthy candidate not promoted: %+v", st.LastVerdict)
	}
	if reg.Current().Version != 3 {
		t.Fatalf("promotion installed version %d, want 3", reg.Current().Version)
	}
	if st.LastVerdict.Serving.Sessions < 60 || st.LastVerdict.Canary.Sessions < 60 {
		t.Fatalf("an arm decided without enough traffic: %+v", st.LastVerdict)
	}
	if _, err := os.Stat(filepath.Join(goodDir, "manifest.json")); err != nil {
		t.Fatalf("promotion touched the candidate dir: %v", err)
	}
	stats = engine.Stats()
	if stats.EventsProcessed != stats.EventsSubmitted || stats.EventsInFlight != 0 {
		t.Fatalf("dropped events across the rollout: %+v", stats)
	}
}
