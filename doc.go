// Package misusedetect is a from-scratch Go reproduction of "System
// Misuse Detection via Informed Behavior Clustering and Modeling"
// (Adilova, Natious, Chen, Thonnard, Kamp; DSN 2019, arXiv:1907.00874).
//
// The library models normal behavior in a system's interaction logs and
// flags outlying sessions. Historical sessions are topic-modeled with an
// LDA ensemble, a security expert (simulated in package
// internal/expert, auditable through the visual-interface artifacts of
// package internal/viz) groups the topics into semantically meaningful
// behavior clusters, and each cluster receives a one-class SVM for
// routing plus an LSTM language model over action sequences for
// normality scoring. New sessions are routed to the best-matching
// cluster and scored action by action in real time.
//
// The online path runs on a sharded concurrent scoring engine
// (internal/core.Engine): session IDs are hashed onto N shards, each
// with its own goroutine, session map, and idle-eviction clock, fed
// through bounded channels with explicit backpressure. Scoring borrows
// pooled tensor scratch buffers, so the steady state allocates nothing
// per action, and Engine.Replay orders what its sink collected by
// submission sequence, making a sharded replay byte-identical to the
// serial monitor. internal/corpus embeds a fixed
// labeled evaluation corpus the race-enabled test suite replays against
// both paths. See ARCHITECTURE.md for the design.
//
// Scoring is backend-pluggable: the per-cluster sequence model is any
// internal/scorer.Scorer — the paper's LSTM (internal/lm), or the
// streaming n-gram and HMM adapters (internal/baseline) — selected by
// core.Config.Backend and persisted through a backend-tagged
// serialization envelope. A versioned model registry (core.Registry)
// hot-swaps whole model generations behind an atomic pointer with
// in-flight sessions pinned to the generation they started on; the
// misused daemon exposes it as the {"cmd":"reload"} wire command
// (misusectl reload), with the active backend and model version in the
// status counters.
//
// The end-to-end evaluation harness (internal/harness) replays
// labeled traffic — the embedded corpus or fresh simulator runs with
// injected misuse — through the serving stack in-process and at the
// wire level against a live daemon, reporting AUC, TPR at an FPR
// budget, precision/recall, and time-to-detection per backend and per
// cluster. It calibrates per-cluster alarm floors from a false-positive
// budget on held-out normal sessions and writes them as a JSON fragment
// the daemon loads with -monitor. `misusectl eval` runs an evaluation
// (add -addr to measure a live daemon; -thresholds to emit the
// calibrated fragment; -min-auc as a CI gate). Performance is measured
// by one program, `go run ./bench`: simulated traffic on a socket into
// a freshly built misused, alarms read back off it, checked against a
// serial replay, across four workloads (see bench/README.md).
//
// Ingestion is batched and token-based end to end: the daemon accepts
// {"batch":[...]} frames beside single-event lines, interns each action
// name to an integer token exactly once at the wire edge
// (actionlog.Interner, with a zero-copy fast parse for known names),
// and the engine moves pre-tokenized events through pooled per-shard
// batches — see ARCHITECTURE.md's ingestion section.
//
// The serving stack is self-maintaining: internal/drift runs online
// drift detection over the session summaries the engine emits —
// Page–Hinkley on the smoothed-likelihood mean and a windowed
// two-sample KS test against a reference frozen at model load, per
// behavior cluster and globally, plus an unknown-action-rate test for
// vocabulary drift — and internal/pipeline closes the loop: it buffers
// recent alarm-free sessions as candidate training data and, on a
// drift signal (or misusectl adapt -once), retrains the per-cluster
// models through the core training path (growing the vocabulary with
// recurring new actions, distilling clusters too quiet to retrain from
// their own stale models), recalibrates the per-cluster alarm floors
// from the same FPR budget, guardrail-evaluates the candidate
// generation against the serving one on held-out traffic, and — unless
// the held-out AUC regressed past tolerance — writes a versioned model
// directory and hot-swaps it through the registry. misused -adapt runs
// the loop in the daemon, with {"cmd":"drift"} / {"cmd":"adapt"} wire
// commands behind misusectl drift and misusectl adapt.
//
// Entry points:
//
//   - internal/core: the full pipeline (training, scoring, online
//     monitoring, the sharded engine, model persistence, retraining)
//   - internal/drift, internal/pipeline: online drift detection and
//     the automated retrain/hot-swap adaptation loop
//   - internal/corpus: the embedded labeled evaluation corpus
//   - internal/harness: end-to-end evaluation
//   - internal/wire: the daemon's line protocol, its reply types and
//     the one client (wire-level evaluation included)
//   - bench: the benchmark, event on the socket to alarm on the socket
//   - internal/experiments: regenerates every figure of the paper
//   - cmd/misusectl: command-line interface (including `status` against
//     a running daemon)
//   - cmd/misused: TCP log-ingestion monitoring daemon
//   - examples/: runnable walkthroughs
//
// See README.md for the quickstart, ARCHITECTURE.md for the serving
// stack and adaptation loop, and OPERATIONS.md for the operator
// runbook.
package misusedetect
