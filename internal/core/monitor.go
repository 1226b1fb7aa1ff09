package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"misusedetect/internal/scorer"
)

// MonitorConfig tunes the online alarm logic. The paper's use case: "as
// soon as predictions start [to] vary a lot or drop down considerably that
// is the alarm to the security operator"; the trend detector is the
// paper's second future-work extension made concrete.
//
// The JSON form is the loadable threshold fragment emitted by the
// calibration harness (misusectl eval -thresholds) and consumed by the
// misused daemon's -monitor flag; see LoadMonitorConfig.
type MonitorConfig struct {
	// LikelihoodFloor raises an alarm when the smoothed per-action
	// likelihood falls below it.
	LikelihoodFloor float64 `json:"likelihood_floor"`
	// ClusterFloors optionally overrides LikelihoodFloor per behavior
	// cluster: a session routed to cluster c with c < len(ClusterFloors)
	// alarms below ClusterFloors[c] instead. Clusters model behaviors of
	// very different predictability (a routine data-entry cluster scores
	// far higher than an exploratory one), so one global floor either
	// floods the noisy cluster or blinds the quiet one; calibration fills
	// this from a per-cluster false-positive budget.
	ClusterFloors []float64 `json:"cluster_floors,omitempty"`
	// EWMAAlpha is the smoothing factor of the likelihood average.
	EWMAAlpha float64 `json:"ewma_alpha"`
	// TrendWindow is the number of recent actions inspected for a
	// sustained downward trend; 0 disables trend alarms.
	TrendWindow int `json:"trend_window"`
	// TrendDrop is the relative drop across the trend window that
	// triggers a trend alarm (e.g. 0.5 = halved).
	TrendDrop float64 `json:"trend_drop"`
	// WarmupActions suppresses alarms for the first actions of a
	// session, where predictions are necessarily uncertain.
	WarmupActions int `json:"warmup_actions"`
}

// DefaultMonitorConfig returns sensible online settings.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{
		LikelihoodFloor: 0.02,
		EWMAAlpha:       0.3,
		TrendWindow:     8,
		TrendDrop:       0.6,
		WarmupActions:   5,
	}
}

func (c *MonitorConfig) validate() error {
	// NaN passes every range check below (NaN < 0 and NaN > 1 are both
	// false) and a NaN floor silently disables alarms (likelihood < NaN
	// is always false), so non-finite values are rejected first.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"LikelihoodFloor", c.LikelihoodFloor},
		{"EWMAAlpha", c.EWMAAlpha},
		{"TrendDrop", c.TrendDrop},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s is %v; must be finite", f.name, f.v)
		}
	}
	for i, f := range c.ClusterFloors {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("core: ClusterFloors[%d] is %v; must be finite", i, f)
		}
	}
	if c.LikelihoodFloor < 0 || c.LikelihoodFloor > 1 {
		return fmt.Errorf("core: LikelihoodFloor %v outside [0,1]", c.LikelihoodFloor)
	}
	for i, f := range c.ClusterFloors {
		if f < 0 || f > 1 {
			return fmt.Errorf("core: ClusterFloors[%d] %v outside [0,1]", i, f)
		}
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		return fmt.Errorf("core: EWMAAlpha %v outside (0,1]", c.EWMAAlpha)
	}
	if c.TrendDrop < 0 || c.TrendDrop >= 1 {
		return fmt.Errorf("core: TrendDrop %v outside [0,1)", c.TrendDrop)
	}
	return nil
}

// floor returns the alarm floor for the given behavior cluster: the
// cluster's calibrated floor when present, the global floor otherwise.
func (c *MonitorConfig) floor(cluster int) float64 {
	if cluster >= 0 && cluster < len(c.ClusterFloors) {
		return c.ClusterFloors[cluster]
	}
	return c.LikelihoodFloor
}

// LoadMonitorConfig reads a monitor-threshold fragment (the JSON form of
// MonitorConfig, as emitted by calibration) over the default settings:
// fields absent from the file keep their DefaultMonitorConfig values, so
// a fragment carrying only the calibrated floors is complete.
func LoadMonitorConfig(path string) (MonitorConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return MonitorConfig{}, fmt.Errorf("core: read monitor config: %w", err)
	}
	cfg := DefaultMonitorConfig()
	if err := json.Unmarshal(data, &cfg); err != nil {
		return MonitorConfig{}, fmt.Errorf("core: parse monitor config %s: %w", path, err)
	}
	if err := cfg.validate(); err != nil {
		return MonitorConfig{}, fmt.Errorf("core: monitor config %s: %w", path, err)
	}
	return cfg, nil
}

// SaveMonitorConfig writes cfg as the JSON fragment LoadMonitorConfig
// reads back.
func SaveMonitorConfig(path string, cfg MonitorConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal monitor config: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: write monitor config: %w", err)
	}
	return nil
}

// AlarmKind labels why the monitor raised an alarm.
type AlarmKind int

// Alarm kinds.
const (
	// AlarmLowLikelihood fires when the smoothed likelihood crosses the
	// floor.
	AlarmLowLikelihood AlarmKind = iota + 1
	// AlarmDownwardTrend fires on a sustained likelihood decline.
	AlarmDownwardTrend
)

// String names the alarm kind.
func (k AlarmKind) String() string {
	switch k {
	case AlarmLowLikelihood:
		return "low-likelihood"
	case AlarmDownwardTrend:
		return "downward-trend"
	default:
		return fmt.Sprintf("alarm(%d)", int(k))
	}
}

// MonitorStep is the monitor's output after one observed action.
type MonitorStep struct {
	// Position is the 0-based action index within the session.
	Position int
	// Action is the observed action index.
	Action int
	// Cluster is the currently selected behavior cluster.
	Cluster int
	// Likelihood is the probability the selected cluster's model
	// assigned to this action (-1 for the first action, which has no
	// prediction).
	Likelihood float64
	// Smoothed is the EWMA of the likelihood.
	Smoothed float64
	// Alarms raised at this step, if any. The slice aliases
	// monitor-owned scratch: it is valid until the monitor's next
	// ObserveToken call and must not be retained.
	Alarms []AlarmKind
}

// SessionMonitor scores one session in real time, action by action, on
// one sequence-model stream: the routed cluster's. For its first
// RouteVoteActions actions the OC-SVMs vote on its cluster and the
// stream is the vote leader's; when the lead changes, the new leader's
// stream is built fresh and replayed over the buffered vote-window
// prefix, so the session is never re-read. The action that freezes the
// vote (the paper's online rule) drops the vote state, leaving the
// winner's stream to score the rest. From then on the monitor is the
// whole session, so it is also its own compaction snapshot (see
// SessionSnapshot).
//
// The monitor speaks token IDs only: action names are resolved exactly
// once at the ingestion edge (actionlog.Interner in the serving path,
// Detector.Token on cold paths), so the per-action hot path never touches
// a string. Unknown-action handling lives with the caller — a token
// outside the detector's vocabulary never reaches ObserveToken.
type SessionMonitor struct {
	d        *Detector
	mcfg     MonitorConfig
	cluster  int
	position int
	smoothed float64
	// warmMin is the minimum post-warmup smoothed likelihood, -1 until
	// the session scores past the warmup: the session's weakest point,
	// which SessionSummary.MinSmoothed reports and calibration
	// quantiles over.
	warmMin float64
	// recent is a fixed ring of the last TrendWindow smoothed values
	// (allocated once at monitor creation, so the steady-state scoring
	// path allocates nothing per action).
	recent    []float64
	recentPos int
	recentN   int
	// vote is the routing vote's state, nil once the vote has frozen.
	vote *voteState
	// stream is the routed cluster's stream: the vote leader's while the
	// vote runs, nil before the first action.
	stream scorer.Stream
	// alarmScratch backs MonitorStep.Alarms (at most one alarm per
	// kind per step), keeping alarm emission allocation-free too.
	alarmScratch [maxAlarmsPerEvent]AlarmKind
}

// maxAlarmsPerEvent bounds the alarms one observed action can raise: one
// per alarm kind (low likelihood, downward trend).
const maxAlarmsPerEvent = 2

// voteState is the state a session needs only while its routing vote
// runs: allocated with the monitor, dropped on the action that freezes
// the vote.
type voteState struct {
	// route is the vote's per-support-vector distance state
	// (ocsvm.Router).
	route []int32
	// prefix buffers the vote-window actions, which a new leader's stream
	// replays; votes tallies the vote per cluster.
	prefix []int32
	votes  []int32
}

// NewSessionMonitor starts monitoring one session.
func (d *Detector) NewSessionMonitor(mcfg MonitorConfig) (*SessionMonitor, error) {
	if err := mcfg.validate(); err != nil {
		return nil, err
	}
	// votes and prefix share one backing array, so a session's birth
	// allocates them once.
	n, k := len(d.clusters), d.cfg.RouteVoteActions
	ints := make([]int32, n+k)
	m := &SessionMonitor{
		d:        d,
		mcfg:     mcfg,
		smoothed: -1,
		warmMin:  -1,
		vote: &voteState{
			route:  d.router.Start(),
			votes:  ints[:n:n],
			prefix: ints[n:n],
		},
	}
	if mcfg.TrendWindow > 0 {
		m.recent = make([]float64, mcfg.TrendWindow)
	}
	return m, nil
}

// ObserveToken consumes the next action token (the detector's vocabulary
// index, as produced by the edge interner or Detector.Token) and returns
// the monitoring step, including any alarms. It is the serial composition
// of StageToken and FinishToken around a single-stream advance; the
// engine's micro-batched path calls the two halves itself so the advance
// in between can be fused across sessions.
func (m *SessionMonitor) ObserveToken(action int) (MonitorStep, error) {
	_, st, err := m.StageToken(action)
	if err != nil {
		return MonitorStep{}, err
	}
	likelihood, err := st.ObserveLikelihood(action)
	if err != nil {
		return MonitorStep{}, err
	}
	return m.FinishToken(action, likelihood), nil
}

// StageToken performs the pre-scoring half of one observation: the
// routing vote, the vote-window prefix buffering and, when the vote hands
// the lead to another cluster, a fresh stream for that cluster replayed
// over the prefix; past the vote's freeze there is nothing to do. It
// returns the routed cluster's sequence model and stream. A stream's
// state is a pure function of the actions it observed, so the replay
// yields the bits the new leader's stream would have had all along. The
// caller MUST advance the returned stream by exactly this action —
// serially via its ObserveLikelihood, or fused with other sessions'
// streams of the same Scorer via scorer.AdvanceBatch — and then call
// FinishToken with the observed likelihood; staging without the advance
// leaves the stream an action behind the monitor and the session
// unusable.
func (m *SessionMonitor) StageToken(action int) (scorer.Scorer, scorer.Stream, error) {
	v := m.vote
	if v == nil {
		return m.d.clusters[m.cluster].Model, m.stream, nil
	}
	cluster, err := m.d.vote(v.route, v.votes, v.prefix, action)
	if err != nil {
		return nil, nil, err
	}
	model := m.d.clusters[cluster].Model
	if m.stream == nil || cluster != m.cluster {
		st := model.NewStream()
		for _, a := range v.prefix {
			if _, err := st.ObserveLikelihood(int(a)); err != nil {
				return nil, nil, err
			}
		}
		m.stream = st
	}
	m.cluster = cluster
	v.prefix = append(v.prefix, int32(action))
	if len(v.prefix) == m.d.cfg.RouteVoteActions {
		m.vote = nil // the vote froze on this action
	}
	return model, m.stream, nil
}

// FinishToken consumes the likelihood the staged stream advance observed
// for action and completes the monitoring step: EWMA smoothing, trend
// tracking, and alarm evaluation. Must follow a matching StageToken.
func (m *SessionMonitor) FinishToken(action int, likelihood float64) MonitorStep {
	step := MonitorStep{
		Position:   m.position,
		Action:     action,
		Cluster:    m.cluster,
		Likelihood: likelihood,
	}
	if likelihood >= 0 {
		if m.smoothed < 0 {
			m.smoothed = likelihood
		} else {
			m.smoothed = m.mcfg.EWMAAlpha*likelihood + (1-m.mcfg.EWMAAlpha)*m.smoothed
		}
		if w := m.mcfg.TrendWindow; w > 0 {
			m.recent[m.recentPos] = m.smoothed
			m.recentPos = (m.recentPos + 1) % w
			if m.recentN < w {
				m.recentN++
			}
		}
	}
	step.Smoothed = m.smoothed

	if m.position >= m.mcfg.WarmupActions && likelihood >= 0 {
		if m.warmMin < 0 || m.smoothed < m.warmMin {
			m.warmMin = m.smoothed
		}
		alarms := m.alarmScratch[:0]
		if m.smoothed < m.mcfg.floor(m.cluster) {
			alarms = append(alarms, AlarmLowLikelihood)
		}
		if w := m.mcfg.TrendWindow; w > 0 && m.recentN == w {
			// recentPos is the next overwrite slot, i.e. the oldest of
			// the last w values; the previous slot holds the newest.
			first, last := m.recent[m.recentPos], m.recent[(m.recentPos+w-1)%w]
			if first > 0 && last < first*(1-m.mcfg.TrendDrop) {
				alarms = append(alarms, AlarmDownwardTrend)
			}
		}
		if len(alarms) > 0 {
			step.Alarms = alarms
		}
	}
	m.position++
	return step
}
