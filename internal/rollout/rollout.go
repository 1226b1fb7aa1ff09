// Package rollout is the staged model-distribution plane: a configurable
// slice of new sessions pins to a candidate generation, a comparator
// built on the drift package's Kolmogorov–Smirnov machinery accumulates
// smoothed-likelihood and alarm-rate samples per arm, and after a
// minimum sample count the candidate is either promoted to serving or
// automatically rolled back with its directory quarantined (Controller).
// A candidate arrives verified: core.LoadGeneration (reload) and
// core.VerifyArtifact (the pipeline's staging check) make one pass over
// a saved model directory, refusing a manifest that leaves any
// cluster's file unchecksummed and verifying each file's SHA-256 before
// it is decoded.
//
//	Detector.Save ──checksummed artifact──► core.LoadGeneration ──► Registry / reload / pipeline
//	                                        manifest once, then per file:
//	                                        open ─► SHA-256 ─► decode
//
//	publish candidate ──► Registry canary slot ──► Assign splits new sessions
//	        │                                        │
//	        │            SessionSummary per arm ◄────┘
//	        ▼                     │
//	  Controller.OnSessionEnd ────┤ comparator (alarm rate, KS, mean drop)
//	                              ▼
//	                    promote  /  rollback + quarantine
package rollout
