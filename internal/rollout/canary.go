package rollout

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/drift"
)

// Config tunes the canary controller.
type Config struct {
	// Fraction is the slice of new sessions pinned to the candidate
	// generation (deterministic hash of the session ID). Defaults to 0.1.
	Fraction float64 `json:"fraction"`
	// MinSessions is how many finished sessions each arm must contribute
	// before the comparator renders a verdict. Defaults to 50.
	MinSessions int `json:"min_sessions"`
	// AlarmSlack is the tolerated absolute excess of the canary arm's
	// alarm-session rate over the serving arm's; above it the candidate
	// is rolled back. Defaults to 0.05.
	AlarmSlack float64 `json:"alarm_slack"`
	// MeanDropTolerance is the tolerated relative drop of the canary
	// arm's mean minimum smoothed likelihood below the serving arm's;
	// a deeper drop rolls the candidate back. Defaults to 0.25.
	MeanDropTolerance float64 `json:"mean_drop_tolerance"`
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any) `json:"-"`
}

const (
	// ksAlpha is the significance of the comparator's two-sample
	// Kolmogorov–Smirnov test of the arms' likelihood distributions; a
	// significant difference with the canary mean below serving rolls
	// back.
	ksAlpha = 0.01
	// maxSamples caps the likelihood samples retained per arm (newest
	// kept).
	maxSamples = 2048
	// quarantineDir is the sibling of a candidate directory that
	// receives it on rollback (renamed in, with the comparator verdict
	// recorded as VerdictFile). A rollback without a known candidate
	// directory only records the verdict in memory.
	quarantineDir = "quarantine"
)

func (c *Config) setDefaults() {
	if c.Fraction == 0 {
		c.Fraction = 0.1
	}
	if c.MinSessions == 0 {
		c.MinSessions = 50
	}
	if c.AlarmSlack == 0 {
		c.AlarmSlack = 0.05
	}
	if c.MeanDropTolerance == 0 {
		c.MeanDropTolerance = 0.25
	}
}

func (c *Config) validate() error {
	if c.Fraction <= 0 || c.Fraction >= 1 {
		return fmt.Errorf("rollout: canary Fraction %v outside (0,1)", c.Fraction)
	}
	if c.MinSessions < 1 {
		return fmt.Errorf("rollout: canary MinSessions must be >= 1, got %d", c.MinSessions)
	}
	if c.AlarmSlack < 0 || c.AlarmSlack > 1 {
		return fmt.Errorf("rollout: AlarmSlack %v outside [0,1]", c.AlarmSlack)
	}
	if c.MeanDropTolerance < 0 || c.MeanDropTolerance >= 1 {
		return fmt.Errorf("rollout: MeanDropTolerance %v outside [0,1)", c.MeanDropTolerance)
	}
	return nil
}

// armStats accumulates one arm's comparator samples: finished sessions,
// how many of them alarmed, and their minimum smoothed likelihoods (a
// capped ring, newest kept — the quantity alarm floors are calibrated
// over, so both arms are compared on the calibrated scale).
type armStats struct {
	sessions int
	alarmed  int
	likes    []float64
	next     int
}

func (a *armStats) observe(alarmed bool, minSmoothed float64) {
	a.sessions++
	if alarmed {
		a.alarmed++
	}
	if minSmoothed < 0 {
		return // never scored past warmup: no likelihood sample
	}
	if len(a.likes) < maxSamples {
		a.likes = append(a.likes, minSmoothed)
	} else {
		a.likes[a.next] = minSmoothed
		a.next = (a.next + 1) % maxSamples
	}
}

func (a *armStats) alarmRate() float64 {
	if a.sessions == 0 {
		return 0
	}
	return float64(a.alarmed) / float64(a.sessions)
}

// mean returns the mean likelihood sample, or -1 with no samples.
func (a *armStats) mean() float64 {
	if len(a.likes) == 0 {
		return -1
	}
	var s float64
	for _, x := range a.likes {
		s += x
	}
	return s / float64(len(a.likes))
}

func (a *armStats) report() ArmReport {
	return ArmReport{
		Sessions:        a.sessions,
		AlarmedSessions: a.alarmed,
		AlarmRate:       a.alarmRate(),
		LikelihoodMean:  a.mean(),
		Samples:         len(a.likes),
	}
}

// ArmReport is one arm's accumulated comparator statistics.
type ArmReport struct {
	Sessions        int     `json:"sessions"`
	AlarmedSessions int     `json:"alarmed_sessions"`
	AlarmRate       float64 `json:"alarm_rate"`
	// LikelihoodMean is the mean minimum smoothed likelihood of the
	// arm's sessions (-1 with no samples); Samples counts the retained
	// likelihood observations.
	LikelihoodMean float64 `json:"likelihood_mean"`
	Samples        int     `json:"samples"`
}

// Verdict records one rollout decision: what was decided, why, and the
// per-arm evidence. Rollbacks persist it as rollout-verdict.json inside
// the quarantined candidate directory.
type Verdict struct {
	// Decision is "promote" or "rollback".
	Decision string    `json:"decision"`
	Reason   string    `json:"reason"`
	At       time.Time `json:"at"`
	// CandidateVersion and ServingVersion are the registry generations
	// compared.
	CandidateVersion uint64    `json:"candidate_version"`
	ServingVersion   uint64    `json:"serving_version"`
	Serving          ArmReport `json:"serving"`
	Canary           ArmReport `json:"canary"`
	// KSStatistic/KSCritical are the two-sample KS comparison of the
	// arms' likelihood samples (zero when either arm had too few).
	KSStatistic float64 `json:"ks_statistic,omitempty"`
	KSCritical  float64 `json:"ks_critical,omitempty"`
	// QuarantinedDir is where a rolled-back candidate directory went
	// (empty on promotion or when no directory was known).
	QuarantinedDir string `json:"quarantined_dir,omitempty"`
}

// VerdictFile is the file name a rollback writes its Verdict to inside
// the quarantined candidate directory.
const VerdictFile = "rollout-verdict.json"

// Status is the controller's operator-facing snapshot ({"cmd":"canary"}
// / misusectl canary).
type Status struct {
	Active bool `json:"active"`
	// CandidateVersion and Fraction describe the pending candidate.
	CandidateVersion uint64  `json:"candidate_version,omitempty"`
	ServingVersion   uint64  `json:"serving_version"`
	Fraction         float64 `json:"fraction,omitempty"`
	MinSessions      int     `json:"min_sessions"`
	CandidateDir     string  `json:"candidate_dir,omitempty"`
	// Serving/Canary are the comparator's per-arm statistics so far.
	Serving ArmReport `json:"serving"`
	Canary  ArmReport `json:"canary"`
	// Verdicts counts decisions rendered; LastVerdict is the most
	// recent (auto or operator-forced).
	Verdicts    uint64   `json:"verdicts"`
	LastVerdict *Verdict `json:"last_verdict,omitempty"`
}

// Controller runs staged canary rollouts over a model registry: Publish
// installs a candidate in the registry's canary slot, OnSessionEnd (fed
// from the engine's session-end hook) accumulates per-arm comparator
// samples, and once both arms reach MinSessions the candidate is
// promoted or rolled back (with its directory quarantined). Safe for
// concurrent use; the engine invokes OnSessionEnd from every shard.
type Controller struct {
	reg *core.Registry
	cfg Config

	mu           sync.Mutex
	active       bool
	candidate    *core.ModelVersion
	servingVer   uint64
	candidateDir string
	serving      armStats
	canary       armStats
	verdicts     uint64
	lastVerdict  *Verdict
}

// NewController builds a canary controller over the registry the serving
// engine reads, applying defaults for zero config fields.
func NewController(reg *core.Registry, cfg Config) (*Controller, error) {
	if reg == nil {
		return nil, fmt.Errorf("rollout: nil registry")
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{reg: reg, cfg: cfg}, nil
}

// Fraction returns the configured canary traffic fraction.
func (c *Controller) Fraction() float64 { return c.cfg.Fraction }

// Active reports whether a canary rollout is pending.
func (c *Controller) Active() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// Publish installs det as the canary candidate: the registry starts
// pinning the configured fraction of new sessions to it and the
// comparator starts accumulating. candidateDir, when non-empty, is the
// candidate's on-disk model directory — the directory a rollback
// quarantines. Publishing while a canary is already pending is refused:
// decide the pending one first.
func (c *Controller) Publish(det *core.Detector, monitor *core.MonitorConfig, source, candidateDir string) (*core.ModelVersion, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active {
		return nil, fmt.Errorf("rollout: a canary rollout is already pending (candidate version %d); promote or roll it back first", c.candidate.Version)
	}
	mv, err := c.reg.PublishCanary(det, monitor, source, c.cfg.Fraction)
	if err != nil {
		return nil, err
	}
	c.active = true
	c.candidate = mv
	c.servingVer = c.reg.Current().Version
	c.candidateDir = candidateDir
	c.serving = armStats{}
	c.canary = armStats{}
	c.logf("canary: candidate generation %d published at fraction %.3f (serving %d, source %s)",
		mv.Version, c.cfg.Fraction, c.servingVer, source)
	return mv, nil
}

// SetCandidateDir records (or corrects) the pending candidate's on-disk
// directory after a publish — the adaptation pipeline renames its
// staging directory to the versioned name only once the registry has
// assigned the version.
func (c *Controller) SetCandidateDir(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active {
		c.candidateDir = dir
	}
}

// OnSessionEnd is the engine hook: finished sessions feed the
// comparator. Only sessions pinned to the two compared generations
// count (a session still running on an older retired generation says
// nothing about the candidate). Once both arms reach MinSessions the
// verdict is rendered inline — on the shard goroutine that delivered
// the deciding session, like every other session-end consumer.
func (c *Controller) OnSessionEnd(sum core.SessionSummary) {
	c.mu.Lock()
	if !c.active {
		c.mu.Unlock()
		return
	}
	switch {
	case sum.Canary && sum.ModelVersion == c.candidate.Version:
		c.canary.observe(sum.Alarms > 0, sum.MinSmoothed)
	case !sum.Canary && sum.ModelVersion == c.servingVer:
		c.serving.observe(sum.Alarms > 0, sum.MinSmoothed)
	default:
		c.mu.Unlock()
		return
	}
	if c.serving.sessions < c.cfg.MinSessions || c.canary.sessions < c.cfg.MinSessions {
		c.mu.Unlock()
		return
	}
	v := c.compareLocked()
	c.decideLocked(v)
	c.mu.Unlock()
}

// compareLocked runs the comparator over the accumulated arms and
// returns the verdict (not yet applied). Caller holds mu.
func (c *Controller) compareLocked() *Verdict {
	v := &Verdict{
		At:               time.Now(),
		CandidateVersion: c.candidate.Version,
		ServingVersion:   c.servingVer,
		Serving:          c.serving.report(),
		Canary:           c.canary.report(),
	}
	// Two-sample KS over the arms' likelihood samples: the serving arm
	// is the frozen reference, the canary arm the window under test.
	// Shape changes the rate and mean checks cannot see (variance
	// inflation, bimodality) still fail the candidate — but only when
	// the canary mean is also below serving, so a candidate that scores
	// *better* is never rolled back for being different.
	ksFired := false
	if w := min(len(c.serving.likes), len(c.canary.likes)); w >= 5 {
		ks, err := drift.NewKSWindow(drift.KSConfig{Window: w, Alpha: ksAlpha})
		if err == nil {
			ks.SetReference(c.serving.likes)
			for _, x := range c.canary.likes[len(c.canary.likes)-w:] {
				ks.Observe(x)
			}
			v.KSStatistic, v.KSCritical = ks.Statistic(), ks.Critical()
			ksFired = v.KSStatistic > v.KSCritical
		}
	}
	sMean, cMean := v.Serving.LikelihoodMean, v.Canary.LikelihoodMean
	switch {
	case v.Canary.AlarmRate > v.Serving.AlarmRate+c.cfg.AlarmSlack:
		v.Decision = "rollback"
		v.Reason = fmt.Sprintf("canary alarm rate %.3f exceeds serving %.3f by more than %.3f",
			v.Canary.AlarmRate, v.Serving.AlarmRate, c.cfg.AlarmSlack)
	case sMean > 0 && cMean >= 0 && cMean < sMean*(1-c.cfg.MeanDropTolerance):
		v.Decision = "rollback"
		v.Reason = fmt.Sprintf("canary mean likelihood %.4f dropped more than %.0f%% below serving %.4f",
			cMean, c.cfg.MeanDropTolerance*100, sMean)
	case ksFired && cMean >= 0 && cMean < sMean:
		v.Decision = "rollback"
		v.Reason = fmt.Sprintf("canary likelihood distribution diverges from serving (KS %.3f > %.3f) with a lower mean (%.4f vs %.4f)",
			v.KSStatistic, v.KSCritical, cMean, sMean)
	default:
		v.Decision = "promote"
		v.Reason = fmt.Sprintf("canary healthy after %d/%d sessions: alarm rate %.3f vs %.3f, mean likelihood %.4f vs %.4f",
			v.Canary.Sessions, v.Serving.Sessions, v.Canary.AlarmRate, v.Serving.AlarmRate, cMean, sMean)
	}
	return v
}

// decideLocked applies a verdict: promote or roll back through the
// registry, quarantine on rollback, record the verdict. Caller holds mu.
func (c *Controller) decideLocked(v *Verdict) {
	switch v.Decision {
	case "promote":
		if _, err := c.reg.PromoteCanary(); err != nil {
			c.logf("canary: promote failed: %v", err)
			return
		}
	default:
		if _, err := c.reg.RollbackCanary(); err != nil {
			c.logf("canary: rollback failed: %v", err)
			return
		}
		v.QuarantinedDir = c.quarantine(c.candidateDir, v)
	}
	c.active = false
	c.candidate = nil
	c.candidateDir = ""
	c.verdicts++
	c.lastVerdict = v
	c.logf("canary: %s generation %d: %s", v.Decision, v.CandidateVersion, v.Reason)
}

// Promote force-promotes the pending candidate (operator override).
func (c *Controller) Promote() (*Verdict, error) {
	return c.force("promote", "operator promote")
}

// Rollback force-rolls-back the pending candidate, quarantining its
// directory (operator override).
func (c *Controller) Rollback() (*Verdict, error) {
	return c.force("rollback", "operator rollback")
}

func (c *Controller) force(decision, reason string) (*Verdict, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.active {
		return nil, fmt.Errorf("rollout: no canary rollout is pending")
	}
	v := c.compareLocked()
	v.Decision = decision
	v.Reason = fmt.Sprintf("%s (comparator so far: %s)", reason, v.Reason)
	c.decideLocked(v)
	if c.active {
		return nil, fmt.Errorf("rollout: %s failed; canary still pending", decision)
	}
	return v, nil
}

// quarantine moves a rolled-back candidate directory into its
// quarantineDir sibling and records the verdict inside it, returning the
// destination ("" when there was nothing to quarantine). Caller holds
// mu.
func (c *Controller) quarantine(dir string, v *Verdict) string {
	if dir == "" {
		return ""
	}
	if _, err := os.Stat(dir); err != nil {
		c.logf("canary: quarantine: candidate dir %s: %v", dir, err)
		return ""
	}
	root := filepath.Join(filepath.Dir(dir), quarantineDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		c.logf("canary: quarantine: %v", err)
		return ""
	}
	dest := filepath.Join(root, filepath.Base(dir))
	for i := 2; ; i++ {
		if _, err := os.Stat(dest); os.IsNotExist(err) {
			break
		}
		dest = filepath.Join(root, fmt.Sprintf("%s-%d", filepath.Base(dir), i))
	}
	if err := os.Rename(dir, dest); err != nil {
		c.logf("canary: quarantine %s: %v", dir, err)
		return ""
	}
	if data, err := json.MarshalIndent(v, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(dest, VerdictFile), append(data, '\n'), 0o644); err != nil {
			c.logf("canary: write verdict: %v", err)
		}
	}
	return dest
}

// Status snapshots the controller for operator inspection.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Active:         c.active,
		ServingVersion: c.reg.Current().Version,
		MinSessions:    c.cfg.MinSessions,
		Serving:        c.serving.report(),
		Canary:         c.canary.report(),
		Verdicts:       c.verdicts,
		LastVerdict:    c.lastVerdict,
	}
	if c.active {
		st.CandidateVersion = c.candidate.Version
		st.Fraction = c.cfg.Fraction
		st.CandidateDir = c.candidateDir
	}
	return st
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
