package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"misusedetect/internal/actionlog"
)

// ThresholdsFile is the calibrated monitor fragment a model directory may
// carry next to its manifest; LoadGeneration reads it with the detector
// and Swap installs both, so calibrated floors travel with the weights
// they were calibrated for.
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
	// one was installed with it (the adaptation pipeline's recalibrated
	// floors, or a reloaded directory's thresholds.json); nil falls back
	// to the engine-wide monitor configuration. Sessions pin the monitor config
	// together with the weights, so recalibrated floors roll out exactly
	// like a new model generation: to new sessions only.
	Monitor *MonitorConfig
	// Source describes where the generation came from (a model
	// directory, "initial", ...), for operator-facing status output.
	Source string
	// LoadedAt is when the generation was installed.
	LoadedAt time.Time
	// toks maps a registry interner token to the generation's vocabulary
	// index (TokenUnknown outside it). It is built once at install,
	// after the vocabulary was interned, so a token past its end names
	// an action the generation does not know.
	toks []int32

	// unknownMu guards unknownSeen, the tokens of the actions outside
	// the vocabulary that the generation's sessions have met; see
	// firstUnknown.
	unknownMu   sync.Mutex
	unknownSeen map[int32]struct{}
}

// index resolves a registry interner token to the generation's
// vocabulary index, or TokenUnknown.
func (mv *ModelVersion) index(tok int32) int32 {
	if tok < 0 || int(tok) >= len(mv.toks) {
		return actionlog.TokenUnknown
	}
	return mv.toks[tok]
}

// firstUnknown reports whether tok is the generation's first sighting
// of that action outside its vocabulary. Every name past the interner's
// learning budget shares TokenUnknown, so the set is bounded by the
// interner's pool.
func (mv *ModelVersion) firstUnknown(tok int32) bool {
	mv.unknownMu.Lock()
	defer mv.unknownMu.Unlock()
	if _, seen := mv.unknownSeen[tok]; seen {
		return false
	}
	if mv.unknownSeen == nil {
		mv.unknownSeen = make(map[int32]struct{})
	}
	mv.unknownSeen[tok] = struct{}{}
	return true
}

// Registry is the versioned model store behind the engine: an atomic
// pointer to the current ModelVersion. Readers (the shards creating
// session monitors) take the pointer with a single atomic
// load; writers swap in a fully constructed new generation, so there is
// never a moment where a reader can observe a half-installed model set
// — the zero-downtime hot-reload primitive.
//
// The registry owns the one token space its generations are served in:
// the interner the wire edge tokenizes with, seeded with the initial
// vocabulary. Installing a generation interns its whole vocabulary
// (outside the learning budget) before any session can pin it.
type Registry struct {
	interner *actionlog.Interner
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
	r := &Registry{}
	mv, err := r.newGenerationLocked(det, nil, "initial")
	if err != nil {
		return nil, err
	}
	r.cur.Store(mv)
	return r, nil
}

// Current returns the active generation. The result is immutable;
// callers pin a session to it by simply keeping the pointer.
func (r *Registry) Current() *ModelVersion {
	return r.cur.Load()
}

// Swap atomically installs det as the next serving generation and
// returns it. monitor, when non-nil, is the alarm configuration
// calibrated for these weights (validated here): sessions starting on
// the new generation score with the new weights under the new floors,
// atomically. A nil monitor leaves new sessions on the engine-wide
// configuration. In-flight readers holding the previous generation are
// unaffected. Swapping is refused while a canary is pending.
func (r *Registry) Swap(det *Detector, monitor *MonitorConfig, source string) (*ModelVersion, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.canary.Load() != nil {
		return nil, fmt.Errorf("core: registry: a canary generation is pending; promote or roll it back before swapping (or publish the new generation as the canary)")
	}
	next, err := r.newGenerationLocked(det, monitor, source)
	if err != nil {
		return nil, err
	}
	r.cur.Store(next)
	return next, nil
}

// newGenerationLocked validates a generation and builds it under the
// next version number: it interns the generation's vocabulary and builds
// its token table. The registry keeps the monitor pointer; callers
// must not modify the config afterwards. Caller holds mu, or owns the
// registry outright as NewRegistry does.
func (r *Registry) newGenerationLocked(det *Detector, monitor *MonitorConfig, source string) (*ModelVersion, error) {
	if det == nil {
		return nil, fmt.Errorf("core: registry: nil detector")
	}
	if det.ClusterCount() == 0 {
		return nil, fmt.Errorf("core: registry: detector has no clusters")
	}
	if monitor != nil {
		if err := monitor.validate(); err != nil {
			return nil, fmt.Errorf("core: registry: generation monitor: %w", err)
		}
	}
	vocab := det.Vocabulary()
	if r.interner == nil {
		// The first generation seeds the token space, so its tokens are
		// its vocabulary indices.
		r.interner = actionlog.NewInterner(vocab)
	}
	r.interner.Install(vocab)
	r.lastVersion++
	return &ModelVersion{
		Version:  r.lastVersion,
		Det:      det,
		Monitor:  monitor,
		Source:   source,
		LoadedAt: time.Now(),
		toks:     r.interner.Snapshot().RemapTo(vocab),
	}, nil
}

// LoadGeneration reads one saved generation — LoadDetector's detector
// plus its optional calibrated thresholds fragment — without installing
// anything. A missing thresholds file is simply absence (nil monitor);
// any other thresholds read error (permissions, a directory in the way,
// corrupt JSON) is surfaced instead of silently discarding calibrated
// floors.
func LoadGeneration(dir string) (*Detector, *MonitorConfig, error) {
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

// ResolveMonitor picks the alarm thresholds a model directory is served
// or classified under, and names where they came from: an explicit
// fragment file (monitorPath, the -monitor flag) wins, then the
// directory's own thresholds.json (fragment, as LoadGeneration read
// it), then DefaultMonitorConfig.
func ResolveMonitor(monitorPath, modelDir string, fragment *MonitorConfig) (MonitorConfig, string, error) {
	switch {
	case monitorPath != "":
		monitor, err := LoadMonitorConfig(monitorPath)
		if err != nil {
			return MonitorConfig{}, "", fmt.Errorf("load monitor thresholds: %w", err)
		}
		return monitor, monitorPath, nil
	case fragment != nil:
		return *fragment, filepath.Join(modelDir, ThresholdsFile), nil
	default:
		return DefaultMonitorConfig(), "defaults", nil
	}
}

// PublishCanary installs det as the candidate generation for a staged
// rollout: Assign pins the given fraction of new sessions to it while
// the rest stay on the serving generation. The candidate gets the next
// version number; Promote makes it serving, Rollback discards it (the
// version number is burned, never recycled). Publishing over a pending
// canary replaces the candidate.
func (r *Registry) PublishCanary(det *Detector, monitor *MonitorConfig, source string, frac float64) (*ModelVersion, error) {
	// NaN fails both range comparisons, so test for inclusion rather
	// than exclusion.
	if !(frac > 0 && frac < 1) {
		return nil, fmt.Errorf("core: registry: canary fraction %v outside (0,1)", frac)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	mv, err := r.newGenerationLocked(det, monitor, source)
	if err != nil {
		return nil, err
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
