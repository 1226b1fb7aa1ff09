// Package wire is the one declaration of misused's line protocol (see
// cmd/misused for the framing): the reply types the daemon encodes, the
// line cap both sides read with, and the Client that misusectl, the
// wire-level evaluation (Replay) and the daemon's tests speak it
// through.
package wire

import (
	"misusedetect/internal/core"
	"misusedetect/internal/pipeline"
	"misusedetect/internal/rollout"
)

// MaxLine caps the lines both sides read: longer ones are errors.
const MaxLine = 1024 * 1024

// StatusReply answers "status" with the engine counters (including the
// active backend and model version) plus daemon identity. It answers
// "sync" too, written once every event sent earlier on the connection
// is scored and after every alarm those events raised.
type StatusReply struct {
	Status core.EngineStats `json:"status"`
	Uptime string           `json:"uptime"`
}

// ReloadReply answers a successful "reload": the daemon verified its
// -model directory's checksums and installed it with its
// thresholds.json; sessions in flight finish on their generation.
type ReloadReply struct {
	Reload ReloadStatus `json:"reload"`
}

// ReloadStatus describes the installed model generation. Canary marks a
// staged reload (misused -canary-frac): the generation serves only
// Fraction of new sessions until the rollout controller promotes it.
type ReloadStatus struct {
	Version  uint64  `json:"version"`
	Backend  string  `json:"backend"`
	Clusters int     `json:"clusters"`
	Canary   bool    `json:"canary,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
}

// CanaryReply answers "canary" (misused -canary-frac): the pending
// candidate and the comparator's per-arm statistics.
type CanaryReply struct {
	Canary rollout.Status `json:"canary"`
}

// CanaryVerdictReply answers "canary-promote" and "canary-rollback",
// which force-promote the pending candidate or roll it back and
// quarantine its directory.
type CanaryVerdictReply struct {
	Verdict *rollout.Verdict `json:"canary_verdict"`
}

// ErrorReply answers a control command that failed or is unknown.
type ErrorReply struct {
	Error string `json:"error"`
}

// DriftReply answers "drift" (misused -adapt): the adaptation
// pipeline's full snapshot.
type DriftReply struct {
	Drift pipeline.Status `json:"drift"`
}

// AdaptReply answers "adapt" (misused -adapt), which runs one manual
// retrain cycle before it replies with the cycle's report.
type AdaptReply struct {
	Adapt *pipeline.CycleReport `json:"adapt"`
}
