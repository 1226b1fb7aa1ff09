// Package pipeline closes the loop from serving back to training: it
// consumes the session summaries the scoring engine emits, maintains
// drift detectors over them (internal/drift), buffers recent alarm-free
// sessions as candidate retraining data, and on a drift signal (or on
// operator demand) runs one adaptation cycle — retrain the per-cluster
// models on the buffered live traffic, recalibrate the per-cluster alarm
// floors from the same false-positive budget, guardrail-evaluate the
// candidate generation against the serving one, and hot-swap it through
// the model registry. A generation whose held-out AUC regresses past the
// tolerance is refused and the registry is left untouched.
//
//	engine ──SessionSummary──► Adapter.OnSessionEnd
//	                             │ drift.Monitor (PH, KS, unknown-rate)
//	                             │ candidate buffer (alarm-free sessions)
//	                     signal ─┤
//	                             ▼
//	                           Cycle: retrain → guardrail eval → calibrate
//	                             │                      │
//	                   refused ◄─┤ AUC regressed        │ passed
//	                             ▼                      ▼
//	                       (keep serving old)   Registry.Swap
package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/drift"
	"misusedetect/internal/harness"
	"misusedetect/internal/logsim"
	"misusedetect/internal/rollout"
)

// Config tunes the adaptation pipeline.
type Config struct {
	// Drift configures the detector bank; zero-valued fields take the
	// drift package defaults.
	Drift drift.Config
	// Monitor is the base monitor configuration classification and
	// calibration run under (EWMA, warmup, trend); the zero value takes
	// core.DefaultMonitorConfig. Floors are replaced by calibration.
	Monitor core.MonitorConfig
	// MinSessions is the number of buffered candidate sessions a cycle
	// needs before it will retrain. Defaults to 60.
	MinSessions int
	// MinPerCluster is the number of trainable sessions a cluster needs
	// to be retrained; starved clusters keep the serving generation's
	// models (see core.RetrainDetector). Defaults to 4.
	MinPerCluster int
	// MaxBuffer caps the candidate buffer; the oldest sessions are
	// dropped first. Defaults to 2000.
	MaxBuffer int
	// FPRBudget is the false-positive budget floors are recalibrated
	// from. Defaults to 0.05.
	FPRBudget float64
	// GuardrailDelta is the tolerated held-out AUC regression of the
	// retrained generation versus the serving one; a candidate below
	// oldAUC-GuardrailDelta is refused. Defaults to 0.05.
	GuardrailDelta float64
	// Backend overrides the retrained sequence-model backend; empty
	// keeps the serving generation's.
	Backend string
	// ModelRoot, when non-empty, receives one versioned model directory
	// per swapped generation (gen-000N with the detector files plus the
	// calibrated thresholds.json), so misused -model can be pointed at a
	// generation and reloads survive restarts.
	ModelRoot string
	// Canary, when non-nil, turns the swap step into a staged rollout:
	// a passing candidate generation is published to the registry's
	// canary slot through the controller instead of being promoted to
	// 100% of traffic, and the controller's comparator decides the
	// promotion later from live per-arm evidence. A cycle is refused
	// while a previous candidate is still pending.
	Canary *rollout.Controller
	// AutoCycle launches a retrain cycle automatically when a drift
	// signal has fired and MinSessions candidates are buffered. Off, the
	// pipeline only detects and reports; cycles run on demand (misusectl
	// adapt -once).
	AutoCycle bool
	// Seed derives the retraining and guardrail seeds.
	Seed int64
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
}

const (
	// holdoutStride sets the cycle's train/holdout split: every
	// holdoutStride-th buffered candidate (a quarter of the buffer) is
	// held out of training for the guardrail evaluation and floor
	// calibration.
	holdoutStride = 4
	// guardrailAnomalies is the number of uniformly random sessions the
	// guardrail evaluates against the held-out normals, next to the
	// scripted misuse scenarios.
	guardrailAnomalies = 30
	// minNewActionCount is how often an out-of-vocabulary action must
	// appear across the candidate buffer before the retrain vocabulary
	// absorbs it, so one-off junk cannot pollute the vocabulary forever.
	minNewActionCount = 3
	// retrainHidden and retrainEpochs size the retrained LSTM (ignored
	// by the classical backends).
	retrainHidden, retrainEpochs = 16, 4
)

func (c *Config) setDefaults() {
	if c.Monitor.EWMAAlpha == 0 {
		c.Monitor = core.DefaultMonitorConfig()
	}
	if c.MinSessions == 0 {
		c.MinSessions = 60
	}
	if c.MinPerCluster == 0 {
		c.MinPerCluster = 4
	}
	if c.MaxBuffer == 0 {
		c.MaxBuffer = 2000
	}
	if c.FPRBudget == 0 {
		c.FPRBudget = 0.05
	}
	if c.GuardrailDelta == 0 {
		c.GuardrailDelta = 0.05
	}
}

func (c *Config) validate() error {
	if c.FPRBudget <= 0 || c.FPRBudget >= 1 {
		return fmt.Errorf("pipeline: FPRBudget %v outside (0,1)", c.FPRBudget)
	}
	if c.GuardrailDelta < 0 || c.GuardrailDelta > 1 {
		return fmt.Errorf("pipeline: GuardrailDelta %v outside [0,1]", c.GuardrailDelta)
	}
	if c.MinSessions < 2 || c.MinPerCluster < 1 || c.MaxBuffer < c.MinSessions {
		return fmt.Errorf("pipeline: MinSessions %d / MinPerCluster %d / MaxBuffer %d inconsistent",
			c.MinSessions, c.MinPerCluster, c.MaxBuffer)
	}
	return nil
}

// CycleReport describes one adaptation cycle end to end: what triggered
// it, what was retrained, how the guardrail judged the candidate
// generation, and whether the registry was swapped.
type CycleReport struct {
	Reason          string    `json:"reason"`
	StartedAt       time.Time `json:"started_at"`
	DurationSeconds float64   `json:"duration_seconds"`
	// ServingVersion is the generation the cycle started against.
	ServingVersion uint64 `json:"serving_version"`
	Candidates     int    `json:"candidates"`
	TrainSessions  int    `json:"train_sessions"`
	HoldoutNormals int    `json:"holdout_normals"`
	// SkippedSessions were buffered but carry actions too rare to enter
	// the grown vocabulary, so they cannot train or calibrate.
	SkippedSessions int `json:"skipped_sessions,omitempty"`
	// RetrainedClusters lists the clusters retrained on fresh data;
	// DistilledClusters were refit on sessions sampled from their stale
	// models (starved clusters under a grown vocabulary); the rest kept
	// the serving generation's models.
	RetrainedClusters []int `json:"retrained_clusters"`
	DistilledClusters []int `json:"distilled_clusters,omitempty"`
	VocabBefore       int   `json:"vocab_before"`
	VocabAfter        int   `json:"vocab_after"`
	// OldAUC is the serving generation's held-out AUC on the guardrail
	// traffic (-1 when it could not score the current traffic at all —
	// total vocabulary drift); NewAUC is the candidate's.
	OldAUC         float64 `json:"old_auc"`
	NewAUC         float64 `json:"new_auc"`
	GuardrailDelta float64 `json:"guardrail_delta"`
	// Swapped reports whether the candidate generation was installed as
	// serving; Canaried reports that it was published to the canary slot
	// instead (staged rollout — the comparator promotes or rolls it back
	// later); Refused carries the guardrail's reason when neither
	// happened.
	Swapped    bool   `json:"swapped"`
	Canaried   bool   `json:"canaried,omitempty"`
	Refused    string `json:"refused,omitempty"`
	NewVersion uint64 `json:"new_version,omitempty"`
	// ModelDir is the versioned directory the generation was saved to
	// (empty without a ModelRoot).
	ModelDir string `json:"model_dir,omitempty"`
	// Calibrated is the recalibrated monitor fragment installed with the
	// swap.
	Calibrated *core.MonitorConfig `json:"calibrated,omitempty"`
}

// Verdict names the cycle's outcome for an operator, and reports
// whether the candidate generation was installed: swapped in as serving
// or published to the canary slot. Only a guardrail refusal installs
// nothing.
func (r *CycleReport) Verdict() (string, bool) {
	switch {
	case r.Swapped:
		return fmt.Sprintf("swapped in version %d", r.NewVersion), true
	case r.Canaried:
		return fmt.Sprintf("published version %d to the canary", r.NewVersion), true
	}
	return "refused: " + r.Refused, false
}

// Status is the adapter's operator-facing snapshot ({"cmd":"drift"} /
// misusectl drift).
type Status struct {
	ServingVersion  uint64             `json:"serving_version"`
	Buffered        int                `json:"buffered_sessions"`
	BufferCap       int                `json:"buffer_cap"`
	MinSessions     int                `json:"min_sessions"`
	DroppedSessions uint64             `json:"dropped_sessions"`
	AutoCycle       bool               `json:"auto_cycle"`
	PendingSignal   bool               `json:"pending_signal"`
	CycleRunning    bool               `json:"cycle_running"`
	Cycles          uint64             `json:"cycles"`
	Swaps           uint64             `json:"swaps"`
	Refusals        uint64             `json:"refusals"`
	LastError       string             `json:"last_error,omitempty"`
	Drift           drift.MonitorState `json:"drift"`
	LastCycle       *CycleReport       `json:"last_cycle,omitempty"`
}

// Adapter is the online adaptation pipeline over one model registry.
// OnSessionEnd is safe to call from multiple goroutines (the engine
// invokes it from every shard); at most one cycle runs at a time.
type Adapter struct {
	reg *core.Registry
	cfg Config
	dm  *drift.Monitor

	mu sync.Mutex
	// buf is a ring of the most recent candidate summaries: before it
	// reaches MaxBuffer it grows by append; afterwards head marks the
	// oldest slot and insertion overwrites in place, so the session-end
	// hook never copies the buffer on the engine's shard goroutines.
	// A candidate keeps the token form the engine recorded it in: 4
	// bytes per action plus one shared interner snapshot. Token streams
	// are remapped to the retrain vocabulary through per-snapshot index
	// tables at cycle time, so retraining never re-interns action strings.
	buf     []core.SessionSummary
	head    int
	dropped uint64
	pending bool
	// epoch invalidates drift signals computed against a pre-cycle
	// detector state: a shard that observed its session before
	// a cycle's end must not re-arm pending afterwards.
	epoch uint64
	// cooldown suppresses automatic re-fire for this many session ends
	// after a failed cycle, so a persistent failure cannot spin
	// retrain attempts on every finished session.
	cooldown int
	// The cycle outcome: a cycle publishes its report, its counter and
	// its error in one critical section, so Status never shows one
	// without the others.
	cycles    uint64
	swaps     uint64
	refusals  uint64
	lastErr   string
	lastCycle *CycleReport

	cycling atomic.Bool
}

// New builds an adapter over the registry the serving engine reads.
func New(reg *core.Registry, cfg Config) (*Adapter, error) {
	if reg == nil {
		return nil, fmt.Errorf("pipeline: nil registry")
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dm, err := drift.NewMonitor(reg.Current().Det.ClusterCount(), cfg.Drift)
	if err != nil {
		return nil, err
	}
	return &Adapter{reg: reg, cfg: cfg, dm: dm}, nil
}

// OnSessionEnd is the engine hook: it feeds the drift detectors with the
// finished session's statistics and buffers the session as retraining
// material when it ended alarm-free and the engine recorded its actions.
func (a *Adapter) OnSessionEnd(sum core.SessionSummary) {
	a.mu.Lock()
	epoch := a.epoch
	a.mu.Unlock()
	signals := a.dm.ObserveSession(sum.Cluster, sum.MinSmoothed, sum.Observed, sum.Unknown)

	a.mu.Lock()
	if sum.Alarms == 0 && len(sum.Tokens) >= 2 && sum.Snap != nil {
		if len(a.buf) < a.cfg.MaxBuffer {
			a.buf = append(a.buf, sum)
		} else {
			a.buf[a.head] = sum
			a.head = (a.head + 1) % a.cfg.MaxBuffer
			a.dropped++
		}
	}
	// Signals computed against a pre-cycle detector state are stale:
	// the cycle that just ran already answered them.
	if len(signals) > 0 && epoch == a.epoch {
		a.pending = true
		for _, s := range signals {
			a.logf("drift signal: %s cluster %d after %d sessions (value %.4f > %.4f): %s",
				s.Detector, s.Cluster, s.Sessions, s.Value, s.Threshold, s.Reason)
		}
	}
	if a.cooldown > 0 {
		a.cooldown--
	}
	fire := a.pending && a.cfg.AutoCycle && a.cooldown == 0 && len(a.buf) >= a.cfg.MinSessions
	a.mu.Unlock()
	if fire && a.cycling.CompareAndSwap(false, true) {
		go func() {
			defer a.cycling.Store(false)
			if _, err := a.cycle("drift-signal"); err != nil {
				a.logf("adaptation cycle failed: %v", err)
				// Back off: wait for fresh traffic before retrying, so a
				// persistent failure cannot spin a retrain per session.
				a.mu.Lock()
				a.cooldown = a.cfg.MinSessions
				a.mu.Unlock()
			}
		}()
	}
}

// snapshotCandidates copies the ring in oldest-first order.
func (a *Adapter) snapshotCandidates() []core.SessionSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]core.SessionSummary, 0, len(a.buf))
	out = append(out, a.buf[a.head:]...)
	return append(out, a.buf[:a.head]...)
}

// Cycle runs one adaptation cycle now (misusectl adapt -once and tests).
// It fails when another cycle is already running or the buffer is short;
// a guardrail refusal is not an error — the report says so.
func (a *Adapter) Cycle(reason string) (*CycleReport, error) {
	if !a.cycling.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("pipeline: a cycle is already running")
	}
	defer a.cycling.Store(false)
	return a.cycle(reason)
}

// cycle is the retrain → guardrail → calibrate → swap sequence. The
// caller holds the cycling flag.
func (a *Adapter) cycle(reason string) (rep *CycleReport, err error) {
	start := time.Now()
	a.mu.Lock()
	a.cycles++
	n := a.cycles
	a.mu.Unlock()
	defer func() { a.finishCycle(rep, err) }()

	if a.cfg.Canary != nil && a.cfg.Canary.Active() {
		return nil, fmt.Errorf("pipeline: a canary rollout is still pending; promote or roll it back before the next cycle")
	}
	candidates := a.snapshotCandidates()
	if len(candidates) < a.cfg.MinSessions {
		return nil, fmt.Errorf("pipeline: %d candidate sessions buffered, need %d", len(candidates), a.cfg.MinSessions)
	}
	serving := a.reg.Current()
	old := serving.Det
	rep = &CycleReport{
		Reason:         reason,
		StartedAt:      start,
		ServingVersion: serving.Version,
		Candidates:     len(candidates),
		VocabBefore:    old.Vocabulary().Size(),
		GuardrailDelta: a.cfg.GuardrailDelta,
	}

	// Grow the vocabulary with recurring unknown actions so retraining
	// absorbs vocabulary drift instead of skipping it forever.
	vocab, err := a.grownVocabulary(old, candidates)
	if err != nil {
		return nil, err
	}
	rep.VocabAfter = vocab.Size()

	// Re-express every candidate's token stream in the (grown) retrain
	// vocabulary through one remap table per interner snapshot — integer
	// indexing per action, no string lookups. Sessions still carrying
	// tokens outside the grown vocabulary — unknowns too rare to clear
	// the growth floor — cannot train; drop them rather than abort the
	// cycle.
	grownRemaps := make(map[*actionlog.InternSnapshot][]int32)
	expressible := candidates[:0:0]
	var encoded [][]int
	for _, c := range candidates {
		rm, ok := grownRemaps[c.Snap]
		if !ok {
			rm = c.Snap.RemapTo(vocab)
			grownRemaps[c.Snap] = rm
		}
		enc := make([]int, len(c.Tokens))
		keep := true
		for i, t := range c.Tokens {
			if t < 0 || int(t) >= len(rm) || rm[t] < 0 {
				keep = false
				break
			}
			enc[i] = int(rm[t])
		}
		if keep {
			expressible = append(expressible, c)
			encoded = append(encoded, enc)
		} else {
			rep.SkippedSessions++
		}
	}
	candidates = expressible
	if len(candidates) < 2 {
		return nil, fmt.Errorf("pipeline: vocabulary filter left %d candidate sessions", len(candidates))
	}

	// Deterministic interleaved split: every k-th candidate is held out
	// for the guardrail evaluation and floor calibration, the rest
	// train, so both halves cover the whole buffering window.
	groups := make([][]core.EncodedSession, old.ClusterCount())
	var holdout []*actionlog.Session
	for i := range candidates {
		c := &candidates[i]
		if i%holdoutStride == holdoutStride-1 {
			holdout = append(holdout, c.Session())
			continue
		}
		if c.Cluster >= 0 && c.Cluster < len(groups) {
			groups[c.Cluster] = append(groups[c.Cluster], core.EncodedSession{ID: c.SessionID, Actions: encoded[i]})
			rep.TrainSessions++
		}
	}
	rep.HoldoutNormals = len(holdout)
	if len(holdout) == 0 {
		return nil, fmt.Errorf("pipeline: holdout split left no sessions")
	}

	seed := a.cfg.Seed + int64(n)
	trainCfg := a.trainConfig(old, vocab, seed)
	newDet, retrainStats, err := core.RetrainDetector(old, trainCfg, vocab, groups, a.cfg.MinPerCluster)
	if err != nil {
		return nil, err
	}
	rep.RetrainedClusters = retrainStats.Retrained
	rep.DistilledClusters = retrainStats.Distilled

	// Guardrail: evaluate the serving and candidate generations on the
	// same held-out traffic — the buffered normals against synthetic
	// anomalies — and refuse the swap when the candidate's AUC regresses
	// past the tolerance. EvalDetector also recalibrates the per-cluster
	// floors from the FPR budget on this holdout, so a passing candidate
	// comes with floors calibrated for exactly its weights.
	guard, err := a.guardrailTraffic(vocab, holdout, seed)
	if err != nil {
		return nil, err
	}
	evalOpts := harness.EvalOptions{
		FPRBudget: a.cfg.FPRBudget,
		Monitor:   a.cfg.Monitor,
		Shards:    2,
		Seed:      seed,
	}
	newBR, err := harness.EvalDetector(newDet, guard, evalOpts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: guardrail eval of the candidate generation: %w", err)
	}
	rep.NewAUC = newBR.AUC
	rep.OldAUC = -1
	if oldBR, err := harness.EvalDetector(old, guard, evalOpts); err == nil {
		// EvalDetector skips sessions outside a detector's vocabulary,
		// so under vocabulary drift the serving generation is scored on
		// a subset. Compare AUCs only while that subset still covers
		// most of the guardrail traffic; a noise figure from a handful
		// of surviving sessions is worse than no comparison.
		oldEval := oldBR.NormalSessions + oldBR.AnomalySessions
		newEval := newBR.NormalSessions + newBR.AnomalySessions
		if 2*oldEval >= newEval {
			rep.OldAUC = oldBR.AUC
		} else {
			a.logf("guardrail: serving generation scored only %d of %d guardrail sessions (vocabulary drift); AUC comparison skipped",
				oldEval, newEval)
		}
	} else {
		// The serving generation cannot score the current traffic at
		// all (total vocabulary drift): nothing to compare against, the
		// candidate stands on its own AUC.
		a.logf("guardrail: serving generation unevaluable on current traffic: %v", err)
	}
	if rep.OldAUC >= 0 && rep.NewAUC < rep.OldAUC-a.cfg.GuardrailDelta {
		rep.Refused = fmt.Sprintf("held-out AUC %.3f regressed more than %.3f below the serving generation's %.3f",
			rep.NewAUC, a.cfg.GuardrailDelta, rep.OldAUC)
		rep.DurationSeconds = time.Since(start).Seconds()
		a.logf("adaptation cycle refused: %s", rep.Refused)
		return rep, nil
	}
	calibrated := newBR.Calibrated
	rep.Calibrated = &calibrated

	// Persist the generation before publishing: a daemon restart then
	// serves the adapted model, not the stale -model directory. The
	// directory is staged under a pending name and renamed to its
	// gen-NNNN once the registry has assigned the version, so a
	// concurrent operator reload cannot make name and version disagree.
	// The staged artifact is verified against its own manifest before
	// anything is installed — the same integrity gate every loader runs.
	// A cycle that fails from here on removes its staging directory:
	// nothing was installed from it.
	source := fmt.Sprintf("adapt:%s", reason)
	staging := ""
	defer func() {
		if err != nil && staging != "" {
			os.RemoveAll(staging)
		}
	}()
	if a.cfg.ModelRoot != "" {
		staging = filepath.Join(a.cfg.ModelRoot, fmt.Sprintf("gen-pending-%d", n))
		if err := newDet.Save(staging); err != nil {
			return nil, fmt.Errorf("pipeline: save generation: %w", err)
		}
		if err := core.SaveMonitorConfig(filepath.Join(staging, core.ThresholdsFile), calibrated); err != nil {
			return nil, fmt.Errorf("pipeline: save thresholds: %w", err)
		}
		if _, err := core.VerifyArtifact(staging); err != nil {
			return nil, fmt.Errorf("pipeline: staged generation failed verification: %w", err)
		}
	}
	var mv *core.ModelVersion
	if a.cfg.Canary != nil {
		mv, err = a.cfg.Canary.Publish(newDet, &calibrated, source, staging)
		if err != nil {
			return nil, fmt.Errorf("pipeline: canary publish: %w", err)
		}
		rep.Canaried = true
	} else {
		mv, err = a.reg.Swap(newDet, &calibrated, source)
		if err != nil {
			return nil, fmt.Errorf("pipeline: swap: %w", err)
		}
		rep.Swapped = true
	}
	if staging != "" {
		dir := filepath.Join(a.cfg.ModelRoot, fmt.Sprintf("gen-%04d", mv.Version))
		if err := os.Rename(staging, dir); err != nil {
			// The generation is installed and persisted; a bad rename
			// only leaves it under the staging name.
			a.logf("rename %s -> %s: %v", staging, dir, err)
			dir = staging
		}
		rep.ModelDir = dir
		if rep.Canaried {
			// The controller quarantines this directory on rollback.
			a.cfg.Canary.SetCandidateDir(dir)
		}
	}
	rep.NewVersion = mv.Version
	rep.DurationSeconds = time.Since(start).Seconds()
	if rep.Canaried {
		a.logf("adaptation cycle published generation %d to the canary (backend %s, AUC %.3f vs %.3f, fraction %.3f)",
			mv.Version, newDet.Backend(), rep.NewAUC, rep.OldAUC, a.cfg.Canary.Fraction())
	} else {
		a.logf("adaptation cycle swapped in generation %d (backend %s, AUC %.3f vs %.3f, %d clusters retrained, %d distilled, vocab %d -> %d)",
			mv.Version, newDet.Backend(), rep.NewAUC, rep.OldAUC, len(rep.RetrainedClusters), len(rep.DistilledClusters), rep.VocabBefore, rep.VocabAfter)
	}
	return rep, nil
}

// finishCycle publishes a cycle's outcome in one critical section: its
// report or error, and the swap or refusal it counts. A cycle that
// reached a verdict also clears the candidate buffer and re-arms the
// drift detectors, so whatever happens next is measured against the new
// serving state, not the pre-cycle window; a refused generation's buffer
// goes too, since retrying on the same data would only refuse again.
func (a *Adapter) finishCycle(rep *CycleReport, err error) {
	a.mu.Lock()
	if err != nil {
		a.lastErr = err.Error()
		a.mu.Unlock()
		return
	}
	a.lastErr, a.lastCycle = "", rep
	if rep.Swapped {
		a.swaps++
	}
	if rep.Refused != "" {
		a.refusals++
	}
	a.buf, a.head, a.pending, a.cooldown = nil, 0, false, 0
	// Bumping the epoch discards drift signals still in flight on shard
	// goroutines that observed their sessions against the pre-cycle
	// detector state.
	a.epoch++
	a.mu.Unlock()
	a.dm.Reset()
}

// grownVocabulary returns the serving vocabulary extended with every
// out-of-vocabulary action that recurs at least minNewActionCount times
// across the candidate buffer, in sorted order for determinism. The
// candidates are token streams: out-of-vocabulary detection is one remap
// table per interner snapshot (integer indexing per action), and only the
// recurring unknown tokens are resolved back to names.
func (a *Adapter) grownVocabulary(old *core.Detector, candidates []core.SessionSummary) (*actionlog.Vocabulary, error) {
	oldVocab := old.Vocabulary()
	remaps := make(map[*actionlog.InternSnapshot][]int32)
	counts := map[string]int{}
	for _, c := range candidates {
		rm, ok := remaps[c.Snap]
		if !ok {
			rm = c.Snap.RemapTo(oldVocab)
			remaps[c.Snap] = rm
		}
		for _, t := range c.Tokens {
			if t >= 0 && int(t) < len(rm) && rm[t] < 0 {
				if name, ok := c.Snap.Name(t); ok {
					counts[name]++
				}
			}
		}
	}
	var fresh []string
	for action, n := range counts {
		if n >= minNewActionCount {
			fresh = append(fresh, action)
		}
	}
	if len(fresh) == 0 {
		return oldVocab, nil
	}
	sort.Strings(fresh)
	grown, err := actionlog.NewVocabulary(append(oldVocab.Actions(), fresh...))
	if err != nil {
		return nil, fmt.Errorf("pipeline: grow vocabulary: %w", err)
	}
	a.logf("vocabulary grows by %d actions: %v", len(fresh), fresh)
	return grown, nil
}

// trainConfig derives the retraining recipe: the harness's small-data
// recipe around the serving generation's structural settings.
func (a *Adapter) trainConfig(old *core.Detector, vocab *actionlog.Vocabulary, seed int64) core.Config {
	oldCfg := old.Config()
	c := harness.SmallDataConfig(vocab.Size(), old.ClusterCount(), retrainHidden, retrainEpochs, seed)
	c.Backend = old.Backend()
	if a.cfg.Backend != "" {
		c.Backend = a.cfg.Backend
	}
	c.MinSessionLength = oldCfg.MinSessionLength
	c.RouteVoteActions = oldCfg.RouteVoteActions
	return c
}

// guardrailTraffic assembles the held-out evaluation workload: the
// buffered alarm-free normals against synthetic anomalies — uniformly
// random sessions over the (possibly grown) vocabulary plus every
// scripted misuse scenario expressible in it.
func (a *Adapter) guardrailTraffic(vocab *actionlog.Vocabulary, holdout []*actionlog.Session, seed int64) (*harness.Traffic, error) {
	tr := &harness.Traffic{Source: "adapt", Vocab: vocab}
	for _, s := range holdout {
		tr.Holdout = append(tr.Holdout, harness.LabeledSession{Session: s, Kind: "candidate-normal"})
	}
	random, err := logsim.RandomSessions(vocab, guardrailAnomalies, 5, 25, seed+101)
	if err != nil {
		return nil, fmt.Errorf("pipeline: guardrail anomalies: %w", err)
	}
	for _, s := range random {
		tr.Anomalies = append(tr.Anomalies, harness.LabeledSession{Session: s, Kind: "random", ExpectedAnomalous: true})
	}
	scenarios := []logsim.MisuseScenario{logsim.MisuseMassDeletion, logsim.MisuseAccountFactory, logsim.MisuseCredentialSweep}
	for i, sc := range scenarios {
		s, err := logsim.MisuseSession(sc, 3+i, seed+202+int64(i))
		if err != nil {
			continue
		}
		expressible := true
		for _, action := range s.Actions {
			if !vocab.Contains(action) {
				expressible = false
				break
			}
		}
		if expressible {
			tr.Anomalies = append(tr.Anomalies, harness.LabeledSession{Session: s, Kind: sc.String(), ExpectedAnomalous: true})
		}
	}
	return tr, nil
}

// Status snapshots the adapter for operator inspection.
func (a *Adapter) Status() Status {
	a.mu.Lock()
	buffered, dropped, pending := len(a.buf), a.dropped, a.pending
	cycles, swaps, refusals := a.cycles, a.swaps, a.refusals
	lastErr, lastCycle := a.lastErr, a.lastCycle
	a.mu.Unlock()
	return Status{
		ServingVersion:  a.reg.Current().Version,
		Buffered:        buffered,
		BufferCap:       a.cfg.MaxBuffer,
		MinSessions:     a.cfg.MinSessions,
		DroppedSessions: dropped,
		AutoCycle:       a.cfg.AutoCycle,
		PendingSignal:   pending,
		CycleRunning:    a.cycling.Load(),
		Cycles:          cycles,
		Swaps:           swaps,
		Refusals:        refusals,
		LastError:       lastErr,
		Drift:           a.dm.State(),
		LastCycle:       lastCycle,
	}
}

func (a *Adapter) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}
