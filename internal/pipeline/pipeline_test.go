package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/drift"
	"misusedetect/internal/harness"
	"misusedetect/internal/logsim"
)

// simSetup trains a fast ngram detector on a fresh simulated workload
// and calibrates its per-cluster floors on the held-out normals.
func simSetup(t *testing.T) (*harness.Traffic, *core.Detector, core.MonitorConfig) {
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

// freshNormals draws a fresh normal workload from the simulator (same
// profile mix as training, new random draws) with phase-prefixed session
// IDs so replayed phases never collide in the engine's session maps.
func freshNormals(t *testing.T, seed int64, prefix string) []*actionlog.Session {
	t.Helper()
	sim, err := logsim.Generate(logsim.ScaledConfig(seed, 120))
	if err != nil {
		t.Fatal(err)
	}
	sessions := actionlog.FilterMinLength(sim.Sessions, 2)
	out := make([]*actionlog.Session, len(sessions))
	for i, s := range sessions {
		c := s.Clone()
		c.ID = fmt.Sprintf("%s-%s", prefix, s.ID)
		out[i] = c
	}
	return out
}

// replaySessions pushes whole sessions through the engine as one
// pre-tokenized batch, interned at the edge as the daemon's parser does,
// with their alarms going to sink.
func replaySessions(t *testing.T, engine *core.Engine, sessions []*actionlog.Session, sink chan<- core.Alarm) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var evs []core.BatchEvent
	for _, ev := range actionlog.Flatten(sessions) {
		evs = append(evs, core.BatchEvent{Ev: ev, Tok: engine.Interner().Intern(ev.Action)})
	}
	if err := engine.SubmitTokens(ctx, evs, sink); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := engine.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptationEndToEnd is the acceptance path: under injected behavior
// drift the pipeline detects it, retrains on buffered live sessions,
// recalibrates floors, and hot-swaps a guardrail-approved generation —
// while the engine keeps serving with no dropped events and every
// session pinned to one generation.
func TestAdaptationEndToEnd(t *testing.T) {
	tr, det, calibrated := simSetup(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	adapter, err := New(reg, Config{
		Drift: drift.Config{
			PageHinkley: drift.PHConfig{Delta: 0.03, Lambda: 3, MinObservations: 30},
			KS:          drift.KSConfig{Window: 25, Alpha: 0.005},
			Unknown:     drift.UnknownConfig{Window: 25, MaxRate: 0.08, MinActions: 150},
		},
		MinSessions:    30,
		MinPerCluster:  2,
		FPRBudget:      0.05,
		GuardrailDelta: 0.2,
		ModelRoot:      t.TempDir(),
		AutoCycle:      true,
		Seed:           7,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sumMu sync.Mutex
	var sums []core.SessionSummary
	engine, err := core.NewEngineRegistry(reg, core.EngineConfig{
		Shards:         3,
		Monitor:        calibrated,
		RecordSessions: true,
		OnSessionEnd: func(s core.SessionSummary) {
			sumMu.Lock()
			sums = append(sums, s)
			sumMu.Unlock()
			adapter.OnSessionEnd(s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	sink := make(chan core.Alarm, 64) // any size works; a buffer only saves shard waits
	collected := make(chan []core.Alarm, 1)
	go func() {
		var alarms []core.Alarm
		for a := range sink {
			alarms = append(alarms, a)
		}
		collected <- alarms
	}()

	// Phase A: stationary traffic from the training distribution. The
	// drift bank freezes its reference windows; nothing may fire.
	replaySessions(t, engine, freshNormals(t, 21, "a"), sink)
	engine.Flush()
	if st := adapter.Status(); st.Drift.Drifted || st.PendingSignal {
		t.Fatalf("drift reported on stationary traffic: %+v", st.Drift.Signals)
	}
	sumMu.Lock()
	phaseAEnd := len(sums)
	sumMu.Unlock()

	// Phase B: gradual behavior drift — swapped/inserted actions shift
	// the likelihood mean down, new action names drift the vocabulary.
	pool := logsim.NewActionNames(6)
	var drifted []*actionlog.Session
	for wave := int64(0); wave < 4; wave++ {
		normals := freshNormals(t, 30+wave, fmt.Sprintf("b%d", wave))
		w, err := logsim.ApplyDrift(normals, tr.Vocab, logsim.Drift{
			SwapRate: 0.12, InsertRate: 0.08, NewActionRate: 0.05,
			NewActions: pool, Seed: 40 + wave,
		})
		if err != nil {
			t.Fatal(err)
		}
		drifted = append(drifted, w...)
	}
	// An operator polling status must never see a swap without its
	// report: check every status the adapter reports until the wait ends.
	watchDone := make(chan struct{})
	torn := make(chan Status, 1)
	go func() {
		defer close(torn)
		for {
			select {
			case <-watchDone:
				return
			default:
			}
			if st := adapter.Status(); st.Swaps > 0 && st.LastCycle == nil {
				torn <- st
				return
			}
		}
	}()
	deadline := time.Now().Add(90 * time.Second)
	batch := 20
	next := 0
	// Feed drifted traffic until the registry serves the new generation,
	// then wait on the adapter's own status: the registry shows the new
	// version before the cycle has published its report.
	for adapter.Status().Swaps == 0 && time.Now().Before(deadline) {
		if next < len(drifted) && reg.Current().Version == 1 {
			end := next + batch
			if end > len(drifted) {
				end = len(drifted)
			}
			replaySessions(t, engine, drifted[next:end], sink)
			next = end
			engine.Flush()
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	close(watchDone)
	if st, ok := <-torn; ok {
		t.Fatalf("status shows a swap without its report: %+v", st)
	}
	if reg.Current().Version < 2 {
		t.Fatalf("pipeline never swapped a generation; status: %+v", adapter.Status())
	}

	st := adapter.Status()
	if st.Swaps != 1 || st.LastCycle == nil {
		t.Fatalf("status after swap: %+v", st)
	}
	rep := st.LastCycle
	if !rep.Swapped || rep.Reason != "drift-signal" {
		t.Fatalf("cycle report: %+v", rep)
	}
	// Guardrail: the adapted generation's held-out AUC is within
	// tolerance of the pre-drift model's on the same traffic.
	if rep.OldAUC >= 0 && rep.NewAUC < rep.OldAUC-rep.GuardrailDelta {
		t.Fatalf("swapped generation regressed past tolerance: new %.3f vs old %.3f", rep.NewAUC, rep.OldAUC)
	}
	t.Logf("adaptation: old AUC %.3f -> new AUC %.3f, %d clusters retrained, vocab %d -> %d, detected after %d sessions",
		rep.OldAUC, rep.NewAUC, len(rep.RetrainedClusters), rep.VocabBefore, rep.VocabAfter, firstSignalSession(st.Drift.Signals))
	// Floors were recalibrated and installed with the generation.
	mv := reg.Current()
	if mv.Monitor == nil || len(mv.Monitor.ClusterFloors) != det.ClusterCount() {
		t.Fatalf("swapped generation carries no recalibrated floors: %+v", mv.Monitor)
	}
	if rep.Calibrated == nil {
		t.Fatal("cycle report carries no calibration")
	}
	// The generation was persisted with its thresholds and loads back.
	if rep.ModelDir == "" {
		t.Fatal("no versioned model directory written")
	}
	for _, f := range []string{"manifest.json", core.ThresholdsFile} {
		if _, err := os.Stat(filepath.Join(rep.ModelDir, f)); err != nil {
			t.Fatalf("versioned dir missing %s: %v", f, err)
		}
	}
	if got, err := core.LoadDetector(rep.ModelDir); err != nil || got.ClusterCount() != det.ClusterCount() {
		t.Fatalf("persisted generation unloadable: %v", err)
	}

	// Phase C: more drifted traffic scores on the new generation — the
	// grown vocabulary absorbs the drift pool, so unknown actions stop.
	sumMu.Lock()
	seenBefore := len(sums)
	sumMu.Unlock()
	waveC, err := logsim.ApplyDrift(freshNormals(t, 51, "c"), tr.Vocab, logsim.Drift{
		SwapRate: 0.12, InsertRate: 0.08, NewActionRate: 0.05,
		NewActions: pool, Seed: 52,
	})
	if err != nil {
		t.Fatal(err)
	}
	replaySessions(t, engine, waveC[:60], sink)
	engine.Flush()

	stats := engine.Stats()
	if stats.EventsProcessed != stats.EventsSubmitted || stats.EventsInFlight != 0 {
		t.Fatalf("dropped events: %+v", stats)
	}
	sumMu.Lock()
	phaseB := append([]core.SessionSummary(nil), sums[phaseAEnd:seenBefore]...)
	phaseC := append([]core.SessionSummary(nil), sums[seenBefore:]...)
	sumMu.Unlock()
	if len(phaseC) == 0 {
		t.Fatal("no phase C summaries")
	}
	unknownRate := func(batch []core.SessionSummary) float64 {
		var known, unknown int
		for _, s := range batch {
			known += s.Observed
			unknown += s.Unknown
		}
		return float64(unknown) / float64(known+unknown)
	}
	for _, s := range phaseC {
		if s.ModelVersion != mv.Version {
			t.Fatalf("phase C session %s scored on generation %d, want %d", s.SessionID, s.ModelVersion, mv.Version)
		}
	}
	// The grown vocabulary absorbed the recurring drift actions: the
	// unknown-action rate must collapse versus the drifted phase (only
	// actions too rare to clear the growth floor may remain unknown).
	rateB, rateC := unknownRate(phaseB), unknownRate(phaseC)
	t.Logf("unknown-action rate: phase B %.4f -> phase C %.4f", rateB, rateC)
	if rateC > rateB/2 {
		t.Fatalf("adapted vocabulary did not absorb the drift: unknown rate %.4f (was %.4f)", rateC, rateB)
	}

	// Every session was pinned to exactly one generation: the alarm
	// stream must never show two versions for one session ID.
	engine.Detach(sink)
	close(sink)
	alarms := <-collected
	bySession := map[string]uint64{}
	for _, a := range alarms {
		if v, ok := bySession[a.SessionID]; ok && v != a.ModelVersion {
			t.Fatalf("session %s mixed generations %d and %d", a.SessionID, v, a.ModelVersion)
		}
		bySession[a.SessionID] = a.ModelVersion
	}
}

// firstSignalSession returns the session count at the earliest signal.
func firstSignalSession(signals []drift.Signal) uint64 {
	var first uint64
	for _, s := range signals {
		if first == 0 || s.Sessions < first {
			first = s.Sessions
		}
	}
	return first
}

// TestCycleGuardrailRefusal forces a retrain whose candidate generation
// cannot match the serving one and asserts the swap is refused with the
// registry untouched: the training split of the buffer is uniformly
// random junk while the holdout split is real normal traffic, so the
// candidate models explain the guardrail anomalies as well as the
// normals and the AUC collapses.
func TestCycleGuardrailRefusal(t *testing.T) {
	tr, det, _ := simSetup(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	adapter, err := New(reg, Config{
		MinSessions:    40,
		MinPerCluster:  2,
		GuardrailDelta: 0.02,
		Seed:           3,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	junk, err := logsim.RandomSessions(tr.Vocab, 120, 8, 20, 99)
	if err != nil {
		t.Fatal(err)
	}
	real := freshNormals(t, 61, "r")
	nextJunk, nextReal := 0, 0
	clusters := det.ClusterCount()
	interner := actionlog.NewInterner(det.Vocabulary())
	for i := 0; i < 120 && nextReal < len(real); i++ {
		var s *actionlog.Session
		if i%holdoutStride == holdoutStride-1 {
			s = real[nextReal] // holdout slots get genuine traffic
			nextReal++
		} else {
			s = junk[nextJunk%len(junk)].Clone()
			s.ID = fmt.Sprintf("junk-%03d", i)
			nextJunk++
		}
		adapter.OnSessionEnd(core.SessionSummary{
			SessionID:   s.ID,
			Cluster:     i % clusters,
			MinSmoothed: 0.5,
			Observed:    len(s.Actions),
			Tokens:      interner.InternAll(s.Actions),
			Snap:        interner.Snapshot(),
		})
	}
	rep, err := adapter.Cycle("manual")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped || rep.Refused == "" {
		t.Fatalf("junk retrain was not refused: %+v", rep)
	}
	if rep.NewAUC >= rep.OldAUC-0.02 {
		t.Fatalf("refusal with new AUC %.3f vs old %.3f makes no sense", rep.NewAUC, rep.OldAUC)
	}
	if reg.Current().Version != 1 || reg.Current().Det != det {
		t.Fatal("refused cycle touched the registry")
	}
	st := adapter.Status()
	if st.Refusals != 1 || st.Swaps != 0 {
		t.Fatalf("status after refusal: %+v", st)
	}
	if st.Buffered != 0 {
		t.Fatalf("refused cycle must clear the buffer, %d left", st.Buffered)
	}
	// A cycle without enough candidates must fail outright.
	if _, err := adapter.Cycle("manual"); err == nil {
		t.Fatal("cycle on an empty buffer must fail")
	}
}

func TestClassifySessions(t *testing.T) {
	_, det, calibrated := simSetup(t)
	sessions := freshNormals(t, 71, "cl")[:30]
	// Splice an out-of-vocabulary action into the first session.
	sessions[0].Actions = append(sessions[0].Actions, "ActionNotInVocab")
	sums, err := ClassifySessions(det, calibrated, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 30 {
		t.Fatalf("classified %d sessions, want 30", len(sums))
	}
	if sums[0].Unknown != 1 {
		t.Fatalf("unknown count = %d, want 1", sums[0].Unknown)
	}
	alarmFree := 0
	for _, s := range sums {
		if s.SessionID == "" || s.Observed == 0 || s.Session() == nil {
			t.Fatalf("bad summary: %+v", s)
		}
		if s.Cluster < 0 || s.Cluster >= det.ClusterCount() {
			t.Fatalf("summary cluster %d out of range", s.Cluster)
		}
		if s.Alarms == 0 {
			alarmFree++
		}
	}
	// Calibration at a 5% FPR budget: the bulk of fresh normal traffic
	// must classify alarm-free, or the buffer would starve.
	if alarmFree < len(sums)/2 {
		t.Fatalf("only %d/%d sessions alarm-free under calibrated floors", alarmFree, len(sums))
	}
}

func TestConfigValidation(t *testing.T) {
	_, det, _ := simSetup(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil registry must fail")
	}
	if _, err := New(reg, Config{FPRBudget: 2}); err == nil {
		t.Fatal("bad FPR budget must fail")
	}
	if _, err := New(reg, Config{MinSessions: 10, MaxBuffer: 5}); err == nil {
		t.Fatal("buffer smaller than MinSessions must fail")
	}
}

func TestCandidateRingBufferAndBackoff(t *testing.T) {
	_, det, _ := simSetup(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	adapter, err := New(reg, Config{MinSessions: 5, MaxBuffer: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	interner := actionlog.NewInterner(det.Vocabulary())
	mk := func(i int) core.SessionSummary {
		return core.SessionSummary{
			SessionID:   fmt.Sprintf("s-%03d", i),
			Cluster:     0,
			MinSmoothed: 0.5,
			Observed:    3,
			Tokens:      interner.InternAll([]string{"a", "b", "c"}),
			Snap:        interner.Snapshot(),
		}
	}
	for i := 0; i < 14; i++ {
		adapter.OnSessionEnd(mk(i))
	}
	st := adapter.Status()
	if st.Buffered != 10 || st.DroppedSessions != 4 {
		t.Fatalf("ring state = %d buffered, %d dropped; want 10/4", st.Buffered, st.DroppedSessions)
	}
	// Oldest-first snapshot: the first 4 sessions were overwritten.
	snap := adapter.snapshotCandidates()
	if len(snap) != 10 || snap[0].SessionID != "s-004" || snap[9].SessionID != "s-013" {
		t.Fatalf("snapshot order wrong: first %s last %s", snap[0].SessionID, snap[len(snap)-1].SessionID)
	}

	// Backoff: a failed cycle must suppress automatic re-fire for
	// MinSessions session ends even with a pending signal buffered.
	adapter.mu.Lock()
	adapter.pending = true
	adapter.cooldown = adapter.cfg.MinSessions
	adapter.mu.Unlock()
	adapter.cfg.AutoCycle = true
	for i := 14; i < 14+adapter.cfg.MinSessions-1; i++ {
		adapter.OnSessionEnd(mk(i))
		if adapter.cycling.Load() {
			t.Fatalf("cycle fired during cooldown at session %d", i)
		}
	}
}
