package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/harness"
	"misusedetect/internal/wire"
)

// loadTraffic builds the labeled evaluation workload of eval.
func loadTraffic(source string, holdout int, seed int64, divisor, random, misuse int) (*harness.Traffic, error) {
	switch source {
	case "corpus":
		return harness.CorpusTraffic(holdout)
	case "sim":
		return harness.SimTraffic(harness.SimConfig{
			Seed:           seed,
			Divisor:        divisor,
			RandomSessions: random,
			MisuseSessions: misuse,
		})
	default:
		return nil, fmt.Errorf("unknown traffic source %q (want corpus or sim)", source)
	}
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

func cmdEval(args []string) error {
	fs := newFlagSet("eval")
	source := fs.String("source", "corpus", "traffic source: corpus (embedded) or sim (fresh logsim run)")
	holdout := fs.Int("holdout", 2, "held-out normal sessions per cluster (corpus source)")
	divisor := fs.Int("divisor", 100, "logsim corpus scale divisor (sim source)")
	random := fs.Int("random", 30, "random anomaly sessions (sim source)")
	misuse := fs.Int("misuse", 15, "scripted misuse sessions (sim source)")
	backends := fs.String("backends", "lstm,ngram,hmm", "comma-separated scorer backends to evaluate")
	modelDir := fs.String("model", "", "evaluate and calibrate an existing model directory instead of training per backend")
	fpr := fs.Float64("fpr", 0.05, "false-positive budget for calibration and the TPR operating point")
	hidden := fs.Int("hidden", 16, "LSTM hidden units")
	epochs := fs.Int("epochs", 4, "LSTM training epochs")
	shards := fs.Int("shards", 4, "engine shard count for the alarm-level replay")
	seed := fs.Int64("seed", 11, "training and simulation seed")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON")
	minAUC := fs.Float64("min-auc", 0, "exit nonzero when any backend's AUC falls below this floor (CI gate)")
	thresholds := fs.String("thresholds", "", "write the calibrated monitor fragment to this path (single backend only)")
	addr := fs.String("addr", "", "replay against a live misused daemon at this address instead of in-process")
	timeout := fs.Duration("timeout", 2*time.Minute, "wire-mode replay deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := loadTraffic(*source, *holdout, *seed, *divisor, *random, *misuse)
	if err != nil {
		return err
	}

	if *addr != "" {
		// Wire mode observes alarms, not scores: there is no AUC to gate
		// on and no model in hand to calibrate, so accepting these flags
		// would silently disable the checks the caller asked for.
		if *minAUC != 0 {
			return fmt.Errorf("eval: -min-auc requires an in-process evaluation (drop -addr)")
		}
		if *thresholds != "" {
			return fmt.Errorf("eval: -thresholds requires an in-process evaluation (drop -addr)")
		}
		rep, err := wire.Replay(*addr, tr, *timeout)
		if err != nil {
			return err
		}
		if *jsonOut {
			return json.NewEncoder(os.Stdout).Encode(rep)
		}
		fmt.Printf("wire replay against %s (backend %s, model v%d, %d shards)\n",
			rep.Addr, rep.Backend, rep.ModelVersion, rep.Shards)
		fmt.Printf("  events:          %d\n", rep.Events)
		fmt.Printf("  anomalies:       %d/%d detected", rep.DetectedAnomalies, rep.AnomalySessions)
		if rep.MeanTimeToDetection > 0 {
			fmt.Printf(" (mean time-to-detection %.1f actions)", rep.MeanTimeToDetection)
		}
		fmt.Println()
		for _, kind := range sortedIntKeys(rep.DetectedByKind) {
			fmt.Printf("    %-18s %d", kind, rep.DetectedByKind[kind])
			if ttd := rep.TTDByKind[kind]; ttd > 0 {
				fmt.Printf(" (mean TTD %.1f actions)", ttd)
			}
			fmt.Println()
		}
		fmt.Printf("  false alarms:    %d/%d normal sessions\n", rep.AlarmedNormals, rep.NormalSessions)
		for _, kind := range sortedIntKeys(rep.AlarmedNormalsByKind) {
			fmt.Printf("    %-18s %d\n", kind, rep.AlarmedNormalsByKind[kind])
		}
		return nil
	}

	opts := harness.EvalOptions{
		Backends:  splitBackends(*backends),
		FPRBudget: *fpr,
		Hidden:    *hidden,
		Epochs:    *epochs,
		Shards:    *shards,
		Seed:      *seed,
	}
	var report *harness.EvalReport
	if *modelDir != "" {
		// Evaluate the model a daemon would actually serve: thresholds
		// written below are calibrated for exactly these weights.
		det, _, err := core.LoadGeneration(*modelDir)
		if err != nil {
			return err
		}
		br, err := harness.EvalDetector(det, tr, opts)
		if err != nil {
			return err
		}
		report = &harness.EvalReport{
			Source:          tr.Source,
			Vocabulary:      det.Vocabulary().Size(),
			ClusterCount:    det.ClusterCount(),
			TrainSessions:   tr.TrainCount(),
			HoldoutSessions: len(tr.Holdout),
			AnomalySessions: len(tr.Anomalies),
			FPRBudget:       opts.FPRBudget,
			Backends:        []harness.BackendReport{br},
		}
	} else {
		if *thresholds != "" && len(opts.Backends) != 1 {
			return fmt.Errorf("eval: -thresholds needs exactly one backend (or -model), got %d", len(opts.Backends))
		}
		if report, err = harness.Eval(tr, opts); err != nil {
			return err
		}
	}
	if *thresholds != "" {
		if err := core.SaveMonitorConfig(*thresholds, report.Backends[0].Calibrated); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote calibrated thresholds to %s\n", *thresholds)
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(report); err != nil {
			return err
		}
	} else {
		renderEvalReport(report)
	}
	for _, br := range report.Backends {
		if br.AUC < *minAUC {
			return fmt.Errorf("eval: backend %s AUC %.3f below the -min-auc floor %.3f", br.Backend, br.AUC, *minAUC)
		}
	}
	return nil
}

func renderEvalReport(report *harness.EvalReport) {
	fmt.Printf("eval on %s traffic: %d train / %d holdout / %d anomalous sessions, %d clusters, FPR budget %.0f%%\n",
		report.Source, report.TrainSessions, report.HoldoutSessions, report.AnomalySessions,
		report.ClusterCount, report.FPRBudget*100)
	for _, br := range report.Backends {
		fmt.Printf("\nbackend %s (trained in %.1fs)\n", br.Backend, br.TrainSeconds)
		fmt.Printf("  AUC:             %.3f\n", br.AUC)
		fmt.Printf("  TPR@%.0f%%FPR:      %.3f (score threshold %.5f)\n", br.FPRBudget*100, br.TPRAtBudget, br.ScoreThreshold)
		fmt.Printf("  precision:       %.3f   recall: %.3f\n", br.Precision, br.Recall)
		fmt.Printf("  calibrated floor: %.5f global, %d per-cluster floors\n",
			br.Calibrated.LikelihoodFloor, len(br.Calibrated.ClusterFloors))
		rp := br.Replay
		fmt.Printf("  engine replay (%d shards, %d events): %d/%d anomalies detected, %d/%d normals alarmed",
			rp.Shards, rp.Events, rp.DetectedAnomalies, rp.AnomalySessions, rp.AlarmedNormals, rp.NormalSessions)
		if rp.MeanTimeToDetection > 0 {
			fmt.Printf(", mean TTD %.1f actions", rp.MeanTimeToDetection)
		}
		fmt.Println()
		if len(br.Scenarios) > 0 {
			fmt.Printf("  per-scenario breakdown at the %.0f%%-FPR operating point:\n", br.FPRBudget*100)
			fmt.Printf("    %-16s %8s %9s %11s %12s %9s %8s\n",
				"scenario", "sessions", "campaigns", "tpr@budget", "false-alarms", "detected", "ttd")
			for _, s := range br.Scenarios {
				camps := "-"
				if s.Campaigns > 0 {
					camps = fmt.Sprintf("%d/%d", s.DetectedCampaigns, s.Campaigns)
				}
				fmt.Printf("    %-16s %8d %9s %11s %12s %9d %8s\n",
					s.Scenario, s.Sessions, camps, fmtRate(s.TPRAtBudget), fmtRate(s.FalseAlarmRate),
					s.DetectedSessions, fmtTTD(s.MeanTimeToDetection))
			}
		}
		for _, cr := range br.Clusters {
			if cr.Normals == 0 && cr.Anomalies == 0 {
				continue
			}
			auc := "    -"
			if cr.AUC >= 0 {
				auc = fmt.Sprintf("%.3f", cr.AUC)
			}
			fmt.Printf("    cluster %2d: %3d normal %3d anomalous  AUC %s  floor %.5f\n",
				cr.Cluster, cr.Normals, cr.Anomalies, auc, cr.Floor)
		}
	}
}

// fmtRate renders a per-scenario rate, where -1 is the "not applicable
// for this class" sentinel (TPR on benign rows, FAR on anomalous ones).
func fmtRate(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// fmtTTD renders a mean time-to-detection in actions (-1 when the class
// was never detected, or is benign).
func fmtTTD(v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

func sortedIntKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
