package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/pipeline"
	"misusedetect/internal/wire"
)

func cmdDrift(args []string) error {
	fs := newFlagSet("drift")
	addr := fs.String("addr", "127.0.0.1:7074", "misused daemon address")
	timeout := fs.Duration("timeout", 5*time.Second, "dial/read timeout")
	jsonOut := fs.Bool("json", false, "print the raw drift JSON line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reply wire.DriftReply
	line, err := wire.Call(*addr, "drift", *timeout, &reply)
	if err != nil {
		return err
	}
	if *jsonOut {
		fmt.Println(string(line))
		return nil
	}
	renderDriftStatus(*addr, reply.Drift)
	return nil
}

func renderDriftStatus(addr string, st pipeline.Status) {
	fmt.Printf("adaptation pipeline at %s (serving model version %d)\n", addr, st.ServingVersion)
	fmt.Printf("  drifted:          %v\n", st.Drift.Drifted)
	fmt.Printf("  sessions watched: %d\n", st.Drift.Sessions)
	fmt.Printf("  unknown-action rate: %.4f (drifted %v)\n", st.Drift.UnknownRate, st.Drift.UnknownDrifted)
	fmt.Printf("  candidate buffer: %d/%d (min %d for a cycle, %d dropped)\n",
		st.Buffered, st.BufferCap, st.MinSessions, st.DroppedSessions)
	fmt.Printf("  auto-cycle:       %v (pending signal %v, cycle running %v)\n",
		st.AutoCycle, st.PendingSignal, st.CycleRunning)
	fmt.Printf("  cycles:           %d (%d swapped, %d refused)\n", st.Cycles, st.Swaps, st.Refusals)
	if st.LastError != "" {
		fmt.Printf("  last error:       %s\n", st.LastError)
	}
	g := st.Drift.Global
	fmt.Printf("  global bank:      %d obs, mean %.4f, PH %.3f/%.3f, KS %.3f (ref %d)\n",
		g.Observations, g.Mean, g.PHStatistic, g.PHLambda, g.KSStatistic, g.KSReference)
	for _, b := range st.Drift.Clusters {
		if b.Observations == 0 {
			continue
		}
		mark := " "
		if b.PHDrifted || b.KSDrifted {
			mark = "!"
		}
		fmt.Printf("  %s cluster %2d:     %4d obs, mean %.4f, PH %.3f, KS %.3f\n",
			mark, b.Cluster, b.Observations, b.Mean, b.PHStatistic, b.KSStatistic)
	}
	for _, s := range st.Drift.Signals {
		fmt.Printf("  signal: %-12s cluster %2d at session %d (%.4f > %.4f) %s\n",
			s.Detector, s.Cluster, s.Sessions, s.Value, s.Threshold, s.Reason)
	}
	if st.LastCycle != nil {
		renderCycleReport(st.LastCycle)
	}
}

func renderCycleReport(rep *pipeline.CycleReport) {
	verdict, _ := rep.Verdict()
	fmt.Printf("last cycle (%s, %.1fs): %s\n", rep.Reason, rep.DurationSeconds, verdict)
	fmt.Printf("  candidates:  %d buffered, %d trained, %d held out, %d skipped\n",
		rep.Candidates, rep.TrainSessions, rep.HoldoutNormals, rep.SkippedSessions)
	fmt.Printf("  clusters:    %d retrained, %d distilled\n", len(rep.RetrainedClusters), len(rep.DistilledClusters))
	fmt.Printf("  vocabulary:  %d -> %d actions\n", rep.VocabBefore, rep.VocabAfter)
	fmt.Printf("  guardrail:   new AUC %.3f vs serving %.3f (tolerance %.3f)\n",
		rep.NewAUC, rep.OldAUC, rep.GuardrailDelta)
	if rep.Calibrated != nil {
		fmt.Printf("  floors:      global %.5f, %d per-cluster\n",
			rep.Calibrated.LikelihoodFloor, len(rep.Calibrated.ClusterFloors))
	}
	if rep.ModelDir != "" {
		fmt.Printf("  saved to:    %s\n", rep.ModelDir)
	}
}

func cmdAdapt(args []string) error {
	fs := newFlagSet("adapt")
	once := fs.Bool("once", false, "run exactly one retrain cycle (required; continuous mode is the daemon's -adapt)")
	addr := fs.String("addr", "", "run the cycle inside a live misused daemon at this address")
	modelDir := fs.String("model", "", "offline mode: model directory to adapt")
	data := fs.String("data", "", "offline mode: event log (JSONL) supplying the candidate sessions")
	root := fs.String("root", "", "offline mode: directory receiving the adapted generation (gen-NNNN)")
	monitorPath := fs.String("monitor", "", "offline mode: calibrated monitor fragment classifying the candidate sessions; empty uses the model directory's thresholds.json, else defaults")
	backend := fs.String("backend", "", "offline mode: retrain backend override (lstm|ngram|hmm; empty keeps the model's)")
	minSessions := fs.Int("min-sessions", 60, "offline mode: minimum candidate sessions")
	guardrail := fs.Float64("guardrail", 0.05, "offline mode: tolerated held-out AUC regression before the cycle is refused")
	fpr := fs.Float64("fpr", 0.05, "offline mode: false-positive budget for floor recalibration")
	seed := fs.Int64("seed", 17, "offline mode: retraining and guardrail seed")
	timeout := fs.Duration("timeout", 10*time.Minute, "daemon-mode dial/read timeout (covers retraining)")
	jsonOut := fs.Bool("json", false, "emit the cycle report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*once {
		return fmt.Errorf("adapt: pass -once (continuous adaptation runs inside the daemon via misused -adapt)")
	}

	var rep *pipeline.CycleReport
	switch {
	case *addr != "":
		var reply wire.AdaptReply
		line, err := wire.Call(*addr, "adapt", *timeout, &reply)
		if err != nil {
			return err
		}
		if reply.Adapt == nil {
			return fmt.Errorf("adapt: unexpected reply %q", line)
		}
		rep = reply.Adapt
	case *modelDir != "" && *data != "":
		var err error
		if rep, err = adaptOffline(*modelDir, *data, *root, *monitorPath, *backend, *minSessions, *guardrail, *fpr, *seed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("adapt: need either -addr (live daemon) or -model with -data (offline)")
	}

	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			return err
		}
	} else {
		renderCycleReport(rep)
	}
	if verdict, installed := rep.Verdict(); !installed {
		return fmt.Errorf("adapt: cycle %s", verdict)
	}
	return nil
}

// adaptOffline runs one adaptation cycle in-process: classify the event
// log's sessions against the loaded model, buffer the alarm-free ones,
// retrain, guardrail-check, and (with -root) write the adapted
// generation next to its calibrated thresholds.
func adaptOffline(modelDir, data, root, monitorPath, backend string, minSessions int, guardrail, fpr float64, seed int64) (*pipeline.CycleReport, error) {
	// Read the directory as the daemon does: verified against its
	// manifest, with its calibrated thresholds.json unless -monitor
	// names a fragment.
	det, fragment, err := core.LoadGeneration(modelDir)
	if err != nil {
		return nil, err
	}
	monitor, _, err := core.ResolveMonitor(monitorPath, modelDir, fragment)
	if err != nil {
		return nil, err
	}
	sessions, err := loadSessions(data)
	if err != nil {
		return nil, err
	}
	sums, err := det.ClassifySessions(monitor, sessions)
	if err != nil {
		return nil, err
	}
	reg, err := core.NewRegistry(det)
	if err != nil {
		return nil, err
	}
	adapter, err := pipeline.New(reg, pipeline.Config{
		Monitor:        monitor,
		MinSessions:    minSessions,
		MaxBuffer:      len(sessions) + minSessions,
		GuardrailDelta: guardrail,
		FPRBudget:      fpr,
		ModelRoot:      root,
		Backend:        backend,
		Seed:           seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	alarmFree := 0
	for _, s := range sums {
		if s.Alarms == 0 {
			alarmFree++
		}
		adapter.OnSessionEnd(s)
	}
	fmt.Fprintf(os.Stderr, "classified %d sessions from %s: %d alarm-free candidates\n", len(sums), data, alarmFree)
	return adapter.Cycle("manual")
}
