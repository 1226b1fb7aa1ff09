package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ThresholdsFile is the calibrated monitor fragment a model directory may
// carry next to its manifest; Registry.LoadFrom installs it with the
// generation so calibrated floors travel with the weights they were
// calibrated for.
const ThresholdsFile = "thresholds.json"

// ModelVersion is one immutable generation of the model set: a trained
// detector plus its monotonically increasing version number. Sessions
// that started on a version keep scoring with it until they end, so a
// reload never mixes weights mid-session.
type ModelVersion struct {
	// Version numbers generations from 1, incremented on every swap.
	Version uint64
	// Det is the generation's detector. Detectors are immutable after
	// training/loading, so sharing one across sessions is safe.
	Det *Detector
	// Monitor is the generation's calibrated alarm configuration, when
	// one was installed with the swap (SwapCalibrated, or LoadFrom on a
	// directory carrying a thresholds.json); nil falls back to the
	// engine-wide monitor configuration. Sessions pin the monitor config
	// together with the weights, so recalibrated floors roll out exactly
	// like a new model generation: to new sessions only.
	Monitor *MonitorConfig
	// Source describes where the generation came from (a model
	// directory, "initial", ...), for operator-facing status output.
	Source string
	// LoadedAt is when the generation was installed.
	LoadedAt time.Time
}

// Registry is the versioned model store behind the engine: an atomic
// pointer to the current ModelVersion. Readers (the shards creating
// session monitors) take the pointer with a single atomic
// load; writers swap in a fully constructed new generation, so there is
// never a moment where a reader can observe a half-installed model set
// — the zero-downtime hot-reload primitive.
type Registry struct {
	// mu serializes swaps and canary transitions so version numbers are
	// strictly increasing even under concurrent reload requests.
	mu  sync.Mutex
	cur atomic.Pointer[ModelVersion]
	// canary, when non-nil, holds a candidate generation serving a
	// deterministic slice of new sessions (see Assign). The candidate
	// already carries its own version number.
	canary atomic.Pointer[canarySlot]
	// lastVersion is the highest version number ever issued (serving or
	// canary), guarded by mu; a rolled-back canary never recycles its
	// number.
	lastVersion uint64
}

// canarySlot pairs the candidate generation with the traffic fraction
// pinned to it.
type canarySlot struct {
	mv   *ModelVersion
	frac float64
}

// NewRegistry starts a registry at version 1 with the given detector.
func NewRegistry(det *Detector) (*Registry, error) {
	r := &Registry{lastVersion: 1}
	if err := validateGeneration(det); err != nil {
		return nil, err
	}
	r.cur.Store(&ModelVersion{Version: 1, Det: det, Source: "initial", LoadedAt: time.Now()})
	return r, nil
}

// Current returns the active generation. The result is immutable;
// callers pin a session to it by simply keeping the pointer.
func (r *Registry) Current() *ModelVersion {
	return r.cur.Load()
}

// Swap atomically installs det as the next generation and returns it.
// In-flight readers holding the previous generation are unaffected. The
// new generation carries no calibrated monitor config: new sessions fall
// back to the engine-wide defaults until SwapCalibrated installs floors
// calibrated for these weights.
func (r *Registry) Swap(det *Detector, source string) (*ModelVersion, error) {
	return r.swap(det, nil, source)
}

// SwapCalibrated installs det together with the monitor configuration
// calibrated for it (the retrain pipeline's path): sessions starting on
// the new generation score with the new weights under the new floors,
// atomically.
func (r *Registry) SwapCalibrated(det *Detector, monitor MonitorConfig, source string) (*ModelVersion, error) {
	if err := monitor.validate(); err != nil {
		return nil, fmt.Errorf("core: registry: calibrated monitor: %w", err)
	}
	return r.swap(det, &monitor, source)
}

func (r *Registry) swap(det *Detector, monitor *MonitorConfig, source string) (*ModelVersion, error) {
	if err := validateGeneration(det); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.canary.Load() != nil {
		return nil, fmt.Errorf("core: registry: a canary generation is pending; promote or roll it back before swapping (or publish the new generation as the canary)")
	}
	r.lastVersion++
	next := &ModelVersion{
		Version:  r.lastVersion,
		Det:      det,
		Monitor:  monitor,
		Source:   source,
		LoadedAt: time.Now(),
	}
	r.cur.Store(next)
	return next, nil
}

// LoadFrom verifies a saved model directory (VerifyArtifact semantics:
// checksum-mismatched or truncated artifacts are refused before any
// weight is touched), reads it, and swaps it in. When the directory
// carries a ThresholdsFile fragment (written by the adaptation pipeline
// or misusectl eval -thresholds), the calibrated monitor config is
// installed with the generation.
func (r *Registry) LoadFrom(dir string) (*ModelVersion, error) {
	det, monitor, err := LoadGeneration(dir)
	if err != nil {
		return nil, err
	}
	if monitor != nil {
		return r.SwapCalibrated(det, *monitor, dir)
	}
	return r.Swap(det, dir)
}

// LoadGeneration verifies and reads one saved generation — the detector
// plus its optional calibrated thresholds fragment — without installing
// anything. A missing thresholds file is simply absence (nil monitor);
// any other thresholds read error (permissions, a directory in the way,
// corrupt JSON) is surfaced instead of silently discarding calibrated
// floors.
func LoadGeneration(dir string) (*Detector, *MonitorConfig, error) {
	if _, err := VerifyArtifact(dir); err != nil {
		return nil, nil, fmt.Errorf("core: registry reload: %w", err)
	}
	det, err := LoadDetector(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: registry reload: %w", err)
	}
	monitor, err := LoadMonitorConfig(filepath.Join(dir, ThresholdsFile))
	switch {
	case err == nil:
		return det, &monitor, nil
	case errors.Is(err, fs.ErrNotExist):
		return det, nil, nil
	default:
		return nil, nil, fmt.Errorf("core: registry reload: calibrated thresholds: %w", err)
	}
}

// PublishCanary installs det as the candidate generation for a staged
// rollout: Assign pins the given fraction of new sessions to it while
// the rest stay on the serving generation. The candidate gets the next
// version number; Promote makes it serving, Rollback discards it (the
// version number is burned, never recycled). Publishing over a pending
// canary replaces the candidate.
func (r *Registry) PublishCanary(det *Detector, monitor *MonitorConfig, source string, frac float64) (*ModelVersion, error) {
	if err := validateGeneration(det); err != nil {
		return nil, err
	}
	// NaN fails both range comparisons, so test for inclusion rather
	// than exclusion.
	if !(frac > 0 && frac < 1) {
		return nil, fmt.Errorf("core: registry: canary fraction %v outside (0,1)", frac)
	}
	if monitor != nil {
		if err := monitor.validate(); err != nil {
			return nil, fmt.Errorf("core: registry: canary monitor: %w", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastVersion++
	mv := &ModelVersion{
		Version:  r.lastVersion,
		Det:      det,
		Monitor:  monitor,
		Source:   source,
		LoadedAt: time.Now(),
	}
	r.canary.Store(&canarySlot{mv: mv, frac: frac})
	return mv, nil
}

// PromoteCanary makes the pending candidate the serving generation and
// clears the canary slot. Sessions pinned to the previous serving
// generation are unaffected; only new sessions see the promotion.
func (r *Registry) PromoteCanary() (*ModelVersion, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := r.canary.Load()
	if slot == nil {
		return nil, fmt.Errorf("core: registry: no canary generation is pending")
	}
	r.cur.Store(slot.mv)
	r.canary.Store(nil)
	return slot.mv, nil
}

// RollbackCanary clears the canary slot and returns the discarded
// candidate; new sessions all pin to the serving generation again.
// Sessions already pinned to the candidate finish on it (immutable
// generations, exactly like any retired version).
func (r *Registry) RollbackCanary() (*ModelVersion, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := r.canary.Load()
	if slot == nil {
		return nil, fmt.Errorf("core: registry: no canary generation is pending")
	}
	r.canary.Store(nil)
	return slot.mv, nil
}

// Canary returns the pending candidate generation and its traffic
// fraction, or (nil, 0) when no canary is pending.
func (r *Registry) Canary() (*ModelVersion, float64) {
	slot := r.canary.Load()
	if slot == nil {
		return nil, 0
	}
	return slot.mv, slot.frac
}

// Assign returns the generation a new session pins to: with a canary
// pending, a deterministic hash of the session ID routes the canary
// fraction of sessions to the candidate (canary=true) and the rest to
// serving. The same session ID always lands on the same arm for a given
// fraction, so retried or re-sharded sessions never flip generations.
func (r *Registry) Assign(sessionID string) (mv *ModelVersion, canary bool) {
	if slot := r.canary.Load(); slot != nil && sessionFraction(sessionID) < slot.frac {
		return slot.mv, true
	}
	return r.cur.Load(), false
}

// sessionFraction hashes a session ID onto [0,1): FNV-1a 64 with a
// 64-bit avalanche finalizer (FNV alone leaves its high bits visibly
// skewed on sequential IDs), mapped through the top 53 bits so the
// float is uniform and a published fraction gets its share of traffic.
func sessionFraction(sessionID string) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(sessionID); i++ {
		h ^= uint64(sessionID[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

func validateGeneration(det *Detector) error {
	if det == nil {
		return fmt.Errorf("core: registry: nil detector")
	}
	if det.ClusterCount() == 0 {
		return fmt.Errorf("core: registry: detector has no clusters")
	}
	return nil
}
