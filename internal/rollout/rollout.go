// Package rollout is the verified, staged model-distribution plane: it
// checks saved model directories against their manifest checksums before
// any loader touches weights (Verify), and runs staged canary rollouts —
// a configurable slice of new sessions pins to a candidate generation,
// a comparator built on the drift package's Kolmogorov–Smirnov machinery
// accumulates smoothed-likelihood and alarm-rate samples per arm, and
// after a minimum sample count the candidate is either promoted to
// serving or automatically rolled back with its directory quarantined
// (Controller).
//
//	Detector.Save ──checksummed artifact──► Verify ──► Registry / reload / pipeline
//
//	publish candidate ──► Registry canary slot ──► Assign splits new sessions
//	        │                                        │
//	        │            SessionSummary per arm ◄────┘
//	        ▼                     │
//	  Controller.OnSessionEnd ────┤ comparator (alarm rate, KS, mean drop)
//	                              ▼
//	                    promote  /  rollback + quarantine
package rollout

import (
	"misusedetect/internal/core"
)

// Report is the artifact-integrity summary Verify returns; see
// core.VerifyReport for the fields.
type Report = core.VerifyReport

// Verify checks a saved model directory against the per-file SHA-256
// checksums and total size its manifest carries, refusing torn,
// truncated, or tampered directories with an error naming the file and
// the mismatch; a manifest without checksums is refused too.
// Registry.LoadFrom, the daemon's reload, and the adaptation pipeline
// all run this before touching weights.
func Verify(dir string) (*Report, error) {
	return core.VerifyArtifact(dir)
}
