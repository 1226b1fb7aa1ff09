// Package rollout is the staged model-distribution plane: a configurable
// slice of new sessions pins to a candidate generation, a comparator
// built on the drift package's Kolmogorov–Smirnov machinery accumulates
// smoothed-likelihood and alarm-rate samples per arm, and after a
// minimum sample count the candidate is either promoted to serving or
// automatically rolled back with its directory quarantined (Controller).
// A candidate arrives verified: core.VerifyArtifact checks a saved model
// directory against its manifest checksums before any loader touches
// weights.
//
//	Detector.Save ──checksummed artifact──► core.VerifyArtifact ──► Registry / reload / pipeline
//
//	publish candidate ──► Registry canary slot ──► Assign splits new sessions
//	        │                                        │
//	        │            SessionSummary per arm ◄────┘
//	        ▼                     │
//	  Controller.OnSessionEnd ────┤ comparator (alarm rate, KS, mean drop)
//	                              ▼
//	                    promote  /  rollback + quarantine
package rollout
