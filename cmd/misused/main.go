// Command misused is the online monitoring daemon: it loads a trained
// detector, listens on TCP, accepts newline-delimited JSON events from log
// shippers, reconstructs sessions on the fly, scores every action through
// the per-cluster language models, and writes alarm lines back to the
// client as soon as suspicious behavior is observed — the realtime use
// case of the paper's §IV-C.
//
// Protocol: each line sent by a client is one actionlog.Event in JSON,
// a batch frame {"batch":[event,...]} carrying up to 512 events (the
// high-throughput path: one parse pass and one queue handoff per shard
// per frame, with a zero-copy fast scan that interns known action names
// straight from the wire bytes), or a control command {"cmd":name}:
// status, sync, reload, drift, adapt, canary, canary-promote or
// canary-rollback (misusectl wraps all but sync). Each line written
// back is an alarm notice in JSON or a command's reply; internal/wire
// declares each reply and says what its command does, and a failed or
// unknown command receives an {"error":...} line. Sessions are expired
// after an idle timeout to bound memory.
//
// Usage:
//
//	misused -model ./model [-listen :7074] [-idle 30m] [-shards 4] [-queue 256] [-monitor thresholds.json]
//	        [-compact-after 5m] [-max-sessions N] [-mem-budget 2g] [-alarm-timeout 50ms]
//
// Memory plane: a session past its routing vote holds only the routed
// model's state and the monitor scalars; sessions idle past
// -compact-after are counted as compacted and wake transparently — with
// byte-identical scores — on their next event. -max-sessions and
// -mem-budget bound the resident set, shedding by refusing new sessions
// first and then evicting the oldest-idle ones (see OPERATIONS.md for
// sizing and the shed counters in status).
//
// Scoring runs on a sharded concurrent engine (see internal/core.Engine
// and ARCHITECTURE.md): session IDs are hashed onto -shards independent
// scoring goroutines fed through bounded queues of depth -queue. The
// model may use any registered scorer backend (LSTM, n-gram, HMM); the
// backend is recorded in the model directory and restored on load.
//
// Model directories are read in one pass, at startup and on every
// reload (core.LoadGeneration): the manifest is read once and must
// checksum every cluster's router and model file, and each file is
// opened once, its SHA-256 checked against the manifest, and decoded
// only after it matched. Torn, truncated, tampered or unchecksummed
// artifacts are refused with a descriptive error. Startup reads the
// directory's thresholds.json like a reload does; an explicit -monitor
// fragment takes precedence over it.
//
// With -adapt the daemon runs the online adaptation pipeline
// (internal/pipeline): per-cluster drift detectors over the live
// session-likelihood stream, a buffer of recent alarm-free sessions as
// candidate retraining data, and — when drift fires — an automatic
// retrain + recalibrate + guardrail-eval + hot-swap cycle. -adapt-root
// receives one versioned model directory per swapped generation.
//
// With -canary-frac the daemon stages every rollout (reloads and
// adaptation cycles alike): the candidate generation serves only that
// fraction of new sessions while a comparator accumulates per-arm alarm
// rates and smoothed likelihoods; after -canary-min-sessions finished
// sessions per arm it promotes the candidate or rolls it back, moving a
// rolled-back candidate's directory into a quarantine directory with
// the verdict recorded inside.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/pipeline"
	"misusedetect/internal/rollout"
)

func main() {
	var (
		// Engine and server flags bind straight into the ServerConfig
		// field they set; the rest configure what run builds around it.
		scfg        ServerConfig
		monitorPath string
		adapt       bool
		acfg        = pipeline.Config{AutoCycle: true}
		ccfg        rollout.Config
	)
	fs := flag.NewFlagSet("misused", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&scfg.ModelDir, "model", "./model", "trained model directory")
	fs.StringVar(&scfg.Listen, "listen", "127.0.0.1:7074", "TCP listen address")
	fs.DurationVar(&scfg.Engine.IdleExpiry, "idle", 30*time.Minute, "session idle expiry")
	fs.IntVar(&scfg.Engine.Shards, "shards", 0, "scoring engine shard count (0 = default)")
	fs.IntVar(&scfg.Engine.QueueDepth, "queue", 0, "per-shard event queue depth (0 = default)")
	fs.StringVar(&monitorPath, "monitor", "", "calibrated monitor-threshold fragment (JSON, from misusectl eval -thresholds); empty uses the model directory's thresholds.json, else defaults")
	fs.DurationVar(&scfg.Engine.CompactAfter, "compact-after", 5*time.Minute, "mark sessions idle this long as compacted (0 disables compaction)")
	fs.IntVar(&scfg.Engine.MaxSessions, "max-sessions", 0, "resident session cap; events for new sessions past it are shed (0 = uncapped)")
	fs.Func("mem-budget", "session memory budget as a byte size (e.g. 512m, 2g); past it new sessions are refused and oldest-idle sessions evicted (empty = unbounded)", func(v string) (err error) {
		if v != "" {
			scfg.Engine.MemBudget, err = core.ParseByteSize(v)
		}
		return err
	})
	fs.DurationVar(&scfg.Engine.AlarmSendTimeout, "alarm-timeout", 0, "bound on waiting for a slow alarm consumer before dropping the alarm (0 = lossless blocking send)")
	fs.BoolVar(&adapt, "adapt", false, "enable the online drift-detection and retrain/hot-swap pipeline")
	fs.StringVar(&acfg.ModelRoot, "adapt-root", "", "directory receiving one versioned model dir per adapted generation (empty = keep generations in memory only)")
	fs.IntVar(&acfg.MinSessions, "adapt-min-sessions", 60, "alarm-free sessions buffered before a retrain cycle may run")
	fs.IntVar(&acfg.Drift.KS.Window, "adapt-window", 40, "drift window: KS reference/sliding window and unknown-rate window, in sessions")
	fs.Float64Var(&acfg.Drift.PageHinkley.Lambda, "adapt-sensitivity", 1, "Page-Hinkley alarm threshold (lambda); lower = more sensitive, earlier retrains")
	fs.Float64Var(&acfg.GuardrailDelta, "adapt-guardrail", 0.05, "tolerated held-out AUC regression of a retrained generation before the swap is refused")
	fs.Float64Var(&acfg.FPRBudget, "adapt-fpr", 0.05, "false-positive budget for recalibrating per-cluster alarm floors")
	fs.Float64Var(&ccfg.Fraction, "canary-frac", 0, "fraction of new sessions pinned to a published canary candidate (0 disables staged rollouts; reload then swaps directly)")
	fs.IntVar(&ccfg.MinSessions, "canary-min-sessions", 50, "finished sessions each rollout arm needs before the comparator promotes or rolls back")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	acfg.Drift.Unknown.Window = acfg.Drift.KS.Window
	if err := run(scfg, monitorPath, adapt, acfg, ccfg); err != nil {
		fmt.Fprintln(os.Stderr, "misused:", err)
		os.Exit(1)
	}
}

// run loads the model directory like a reload does, wires the optional
// canary controller (ccfg.Fraction > 0) and adaptation pipeline (adapt)
// into scfg, and serves until SIGINT or SIGTERM.
func run(scfg ServerConfig, monitorPath string, adapt bool, acfg pipeline.Config, ccfg rollout.Config) error {
	// LoadGeneration verifies each file before it is decoded: a torn,
	// truncated, tampered, or checksum-less model directory is refused at
	// startup exactly like at reload.
	det, fragment, err := core.LoadGeneration(scfg.ModelDir)
	if err != nil {
		return fmt.Errorf("load model: %w", err)
	}
	monitor, source, err := core.ResolveMonitor(monitorPath, scfg.ModelDir, fragment)
	if err != nil {
		return err
	}
	fmt.Printf("alarm thresholds from %s (global floor %.5f, %d cluster floors)\n",
		source, monitor.LikelihoodFloor, len(monitor.ClusterFloors))
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	reg, err := core.NewRegistry(det)
	if err != nil {
		return err
	}
	scfg.Engine.Monitor = monitor
	scfg.Engine.Logf = logf
	var canary *rollout.Controller
	if ccfg.Fraction > 0 {
		ccfg.Logf = logf
		if canary, err = rollout.NewController(reg, ccfg); err != nil {
			return fmt.Errorf("start canary controller: %w", err)
		}
		scfg.Canary = canary
		scfg.Engine.OnSessionEnd = canary.OnSessionEnd
	}
	if adapt {
		acfg.Monitor, acfg.Canary, acfg.Logf = monitor, canary, logf
		adapter, err := pipeline.New(reg, acfg)
		if err != nil {
			return fmt.Errorf("start adaptation pipeline: %w", err)
		}
		scfg.Adapter = adapter
		scfg.Engine.RecordSessions = true
		if canary != nil {
			// Both consumers feed off every finished session: the rollout
			// comparator first (cheap counters), then the drift/retrain
			// pipeline.
			scfg.Engine.OnSessionEnd = func(sum core.SessionSummary) {
				canary.OnSessionEnd(sum)
				adapter.OnSessionEnd(sum)
			}
		} else {
			scfg.Engine.OnSessionEnd = adapter.OnSessionEnd
		}
	}
	srv, err := NewServer(reg, scfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("misused listening on %s (model %s, backend %s, %d clusters, %d shards, adapt %v)\n",
		srv.Addr(), scfg.ModelDir, det.Backend(), det.ClusterCount(), srv.Stats().Shards, adapt)
	return srv.Serve(ctx)
}
