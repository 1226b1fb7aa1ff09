// Adaptive-serving example: the self-maintaining loop end to end. A
// detector trained on a historical window serves live traffic through
// the sharded engine; user behavior then drifts gradually — habits
// loosen and new portal actions appear — and the per-session likelihood
// statistics sag. The drift monitor (Page–Hinkley + KS + unknown-rate)
// raises a signal, the adaptation pipeline retrains on the buffered
// alarm-free live sessions, a guardrail evaluation approves the
// candidate generation, the per-cluster alarm floors are recalibrated
// from the same FPR budget, and the registry hot-swaps — all while the
// engine keeps scoring. The demo prints the detection lag and the
// held-out AUC before and after adaptation.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/drift"
	"misusedetect/internal/harness"
	"misusedetect/internal/logsim"
	"misusedetect/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive-serving:", err)
		os.Exit(1)
	}
}

func run() error {
	// --- Train on the historical window and calibrate from a 5% FPR
	// budget, exactly as a deployment would.
	fmt.Println("== training on the historical window ==")
	tr, err := harness.SimTraffic(harness.SimConfig{Seed: 11, Divisor: 50})
	if err != nil {
		return err
	}
	cfg := core.ScaledConfig(tr.Vocab.Size(), len(tr.Train), 8, 2, 11)
	cfg.Backend = baseline.BackendNGram
	det, err := core.TrainDetector(cfg, tr.Vocab, tr.Train, nil)
	if err != nil {
		return err
	}
	validation := make([]*actionlog.Session, len(tr.Holdout))
	for i, l := range tr.Holdout {
		validation[i] = l.Session
	}
	calibrated, err := det.CalibrateMonitorPerCluster(core.DefaultMonitorConfig(), validation, 0.05, 2)
	if err != nil {
		return err
	}
	fmt.Printf("trained %s detector: %d clusters, %d training sessions, global floor %.4f\n",
		det.Backend(), det.ClusterCount(), tr.TrainCount(), calibrated.LikelihoodFloor)

	// --- Serve through the engine with the adaptation loop attached.
	reg, err := core.NewRegistry(det)
	if err != nil {
		return err
	}
	adapter, err := pipeline.New(reg, pipeline.Config{
		Drift: drift.Config{
			PageHinkley: drift.PHConfig{Delta: 0.03, Lambda: 3, MinObservations: 30},
			KS:          drift.KSConfig{Window: 25, Alpha: 0.005},
			Unknown:     drift.UnknownConfig{Window: 25, MaxRate: 0.08, MinActions: 150},
		},
		MinSessions:    30,
		MinPerCluster:  2,
		GuardrailDelta: 0.2,
		Seed:           7,
	})
	if err != nil {
		return err
	}
	engine, err := core.NewEngineRegistry(reg, core.EngineConfig{
		Shards:         4,
		Monitor:        calibrated,
		RecordSessions: true,
		OnSessionEnd:   adapter.OnSessionEnd,
	})
	if err != nil {
		return err
	}
	defer engine.Close()

	// --- Phase 1: stationary traffic. The drift bank freezes its
	// reference windows; nothing fires.
	fmt.Println("\n== phase 1: stationary traffic ==")
	if err := serve(engine, freshNormals(21, "a", nil, tr.Vocab)); err != nil {
		return err
	}
	st := adapter.Status()
	phase1Sessions := st.Drift.Sessions
	fmt.Printf("served %d sessions, drifted=%v (global mean %.4f)\n",
		st.Drift.Sessions, st.Drift.Drifted, st.Drift.Global.Mean)

	// --- Phase 2: gradual behavior drift. 12% of actions swapped, 8%
	// inserted, 5% replaced by six brand-new action names.
	fmt.Println("\n== phase 2: behavior drifts ==")
	d := &logsim.Drift{
		SwapRate: 0.12, InsertRate: 0.08, NewActionRate: 0.05,
		NewActions: logsim.NewActionNames(6),
	}
	for wave := int64(0); wave < 6 && !adapter.Status().Drift.Drifted; wave++ {
		d.Seed = 40 + wave
		batch := freshNormals(30+wave, fmt.Sprintf("b%d", wave), d, tr.Vocab)
		if err := serve(engine, batch); err != nil {
			return err
		}
	}
	st = adapter.Status()
	if !st.Drift.Drifted {
		return fmt.Errorf("drift was not detected — try a stronger Drift config")
	}
	for _, s := range st.Drift.Signals {
		fmt.Printf("signal: %-12s cluster %2d after %d sessions (%.3f > %.3f)\n",
			s.Detector, s.Cluster, s.Sessions, s.Value, s.Threshold)
	}
	fmt.Printf("detection lag: first signal after %d drifted sessions\n",
		firstSignal(st.Drift.Signals)-phase1Sessions)

	// --- Phase 3: the retrain/recalibrate/guardrail/hot-swap cycle.
	fmt.Println("\n== phase 3: adaptation cycle ==")
	rep, err := adapter.Cycle("demo")
	if err != nil {
		return err
	}
	if !rep.Swapped {
		return fmt.Errorf("guardrail refused the candidate generation: %s", rep.Refused)
	}
	fmt.Printf("retrained %d clusters (%d distilled), vocabulary %d -> %d actions\n",
		len(rep.RetrainedClusters), len(rep.DistilledClusters), rep.VocabBefore, rep.VocabAfter)
	fmt.Printf("guardrail: held-out AUC %.3f (serving model scored %.3f on the drifted traffic)\n",
		rep.NewAUC, rep.OldAUC)
	fmt.Printf("hot-swapped generation %d with recalibrated floors (global %.4f) in %.1fs\n",
		rep.NewVersion, rep.Calibrated.LikelihoodFloor, rep.DurationSeconds)

	// --- Phase 4: the new generation absorbs the drift: the same
	// drifted distribution now scores without unknown actions, and the
	// engine never stopped.
	fmt.Println("\n== phase 4: recovered serving ==")
	d.Seed = 52
	if err := serve(engine, freshNormals(51, "c", d, tr.Vocab)); err != nil {
		return err
	}
	st = adapter.Status()
	stats := engine.Stats()
	fmt.Printf("model version %d now serving; unknown-action rate %.4f (was over %.2f at the signal)\n",
		stats.ModelVersion, st.Drift.UnknownRate, 0.05)
	fmt.Printf("engine: %d events submitted, %d processed, %d alarms, 0 dropped\n",
		stats.EventsSubmitted, stats.EventsProcessed, stats.AlarmsRaised)
	return nil
}

// freshNormals draws a fresh workload from the simulator's behavior
// profiles, optionally perturbed by a drift transform.
func freshNormals(seed int64, prefix string, d *logsim.Drift, vocab *actionlog.Vocabulary) []*actionlog.Session {
	sim, err := logsim.Generate(logsim.ScaledConfig(seed, 120))
	if err != nil {
		panic(err)
	}
	sessions := actionlog.FilterMinLength(sim.Sessions, 2)
	for i, s := range sessions {
		c := s.Clone()
		c.ID = fmt.Sprintf("%s-%s", prefix, s.ID)
		sessions[i] = c
	}
	if d == nil {
		return sessions
	}
	drifted, err := logsim.ApplyDrift(sessions, vocab, *d)
	if err != nil {
		panic(err)
	}
	return drifted
}

// serve streams the sessions through the engine — interned at the edge,
// one SubmitTokens batch — and ends them (what idle eviction does in
// production).
func serve(engine *core.Engine, sessions []*actionlog.Session) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var evs []core.BatchEvent
	for _, ev := range actionlog.Flatten(sessions) {
		evs = append(evs, core.BatchEvent{Ev: ev, Tok: engine.Interner().Intern(ev.Action)})
	}
	if err := engine.SubmitTokens(ctx, evs, nil); err != nil {
		return err
	}
	if err := engine.Drain(ctx); err != nil {
		return err
	}
	engine.Flush()
	return nil
}

// firstSignal returns the session count at the earliest drift signal.
func firstSignal(signals []drift.Signal) uint64 {
	var first uint64
	for _, s := range signals {
		if first == 0 || s.Sessions < first {
			first = s.Sessions
		}
	}
	return first
}
