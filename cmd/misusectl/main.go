// Command misusectl is the command-line interface of the misuse-detection
// library: it generates simulated portal logs, trains the full pipeline
// (informed clustering + per-cluster OC-SVM and LSTM models), scores
// session logs, replays sessions through the online monitor, and
// regenerates every figure of the paper's evaluation.
//
// Usage:
//
//	misusectl generate   -out events.jsonl [-divisor 10] [-seed 1]
//	misusectl train      -data events.jsonl -model ./model [-clusters 13] [-scale default] [-backend lstm|ngram|hmm]
//	misusectl score      -data events.jsonl -model ./model [-top 20]
//	misusectl monitor    -data events.jsonl -model ./model
//	misusectl experiment -id fig5 [-scale test] [-seed 42]  (or -id all)
//	misusectl inspect    -model ./model
//	misusectl eval       [-source corpus|sim] [-backends lstm,ngram,hmm | -model ./model] [-fpr 0.05] [-min-auc 0.6] [-thresholds out.json] [-json] [-addr host:port]
//	misusectl status     -addr 127.0.0.1:7074
//	misusectl reload     -addr 127.0.0.1:7074
//	misusectl drift      -addr 127.0.0.1:7074
//	misusectl adapt      -once [-addr host:port | -model ./model -data events.jsonl [-root ./generations]]
//	misusectl canary     -addr 127.0.0.1:7074 [-promote | -rollback]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

// subcommands is the single registry of misusectl verbs: run dispatches
// on it and the docs-consistency test cross-checks every subcommand
// README.md and OPERATIONS.md mention against it.
var subcommands = map[string]func([]string) error{
	"generate":   cmdGenerate,
	"train":      cmdTrain,
	"score":      cmdScore,
	"monitor":    cmdMonitor,
	"viz":        cmdViz,
	"experiment": cmdExperiment,
	"inspect":    cmdInspect,
	"eval":       cmdEval,
	"status":     cmdStatus,
	"reload":     cmdReload,
	"drift":      cmdDrift,
	"adapt":      cmdAdapt,
	"canary":     cmdCanary,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "misusectl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage()
		return nil
	}
	cmd, ok := subcommands[args[0]]
	if !ok {
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return cmd(args[1:])
}

// subcommandNames returns the registered verbs, sorted.
func subcommandNames() []string {
	out := make([]string, 0, len(subcommands))
	for name := range subcommands {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `misusectl - system misuse detection via informed behavior clustering and modeling

subcommands:
  generate    generate a simulated portal event log (JSONL)
  train       train the detection pipeline on an event log
  score       score the sessions of an event log against a trained model
  monitor     replay an event log through the online monitor
  viz         build the visual interface artifacts (t-SNE projection, topic-action matrix, chord diagram)
  experiment  regenerate a paper figure (fig3 fig4 fig5 fig6 fig7 fig8-9 fig10 fig11-12 top20 ablation-* extension-*) or 'all'
  inspect     describe a saved model directory
  eval        replay labeled traffic end to end and report detection quality (AUC, TPR@FPR, time-to-detection) per backend, with threshold calibration; -addr measures a live daemon at the wire level
  status      query a running misused daemon for its engine counters (backend, model version, ...)
  reload      hot-swap a running misused daemon onto its re-trained model directory
  drift       inspect a daemon's drift detectors and adaptation pipeline (requires misused -adapt)
  adapt       run one retrain/recalibrate/hot-swap cycle: -addr inside a live daemon, or offline against -model and -data
  canary      inspect a daemon's staged rollout, or force-decide it with -promote / -rollback (requires misused -canary-frac)`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}
