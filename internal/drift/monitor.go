package drift

import (
	"fmt"
	"sync"
)

// Config assembles the detector bank a Monitor runs: Page–Hinkley and KS
// per behavior cluster and globally, plus the global unknown-action-rate
// test. Zero-valued fields take the per-detector defaults, so the zero
// Config is the all-defaults bank.
type Config struct {
	PageHinkley PHConfig      `json:"page_hinkley"`
	KS          KSConfig      `json:"ks"`
	Unknown     UnknownConfig `json:"unknown"`
}

// maxSignals caps a Monitor's retained signal history.
const maxSignals = 32

// Signal is one raised drift alarm.
type Signal struct {
	// Detector names the test that fired: "page-hinkley", "ks", or
	// "unknown-rate".
	Detector string `json:"detector"`
	// Cluster is the behavior cluster the statistic tracked; -1 is the
	// global (all-clusters) stream.
	Cluster int `json:"cluster"`
	// Sessions is the monitor's session count when the signal fired.
	Sessions uint64 `json:"sessions"`
	// Value is the test statistic at firing time; Threshold is what it
	// exceeded.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Reason is the operator-facing one-liner.
	Reason string `json:"reason"`
}

// bank is one stream's detector pair. Each detector latches after
// firing: a drifted model keeps drifting until the pipeline retrains and
// resets, and one signal per cause is what the pipeline wants.
type bank struct {
	cluster          int
	ph               *PageHinkley
	ks               *KSWindow
	phFired, ksFired bool
}

func newBank(cluster int, cfg *Config) (*bank, error) {
	ph, err := NewPageHinkley(cfg.PageHinkley)
	if err != nil {
		return nil, err
	}
	ks, err := NewKSWindow(cfg.KS)
	if err != nil {
		return nil, err
	}
	return &bank{cluster: cluster, ph: ph, ks: ks}, nil
}

func (b *bank) observe(score float64, sessions uint64) []Signal {
	var out []Signal
	if b.ph.Observe(score) && !b.phFired {
		b.phFired = true
		out = append(out, Signal{
			Detector: "page-hinkley", Cluster: b.cluster, Sessions: sessions,
			Value: b.ph.Statistic(), Threshold: b.ph.cfg.Lambda,
			Reason: fmt.Sprintf("smoothed-likelihood mean shifted down (running mean %.4f)", b.ph.Mean()),
		})
	}
	if b.ks.Observe(score) && !b.ksFired {
		b.ksFired = true
		out = append(out, Signal{
			Detector: "ks", Cluster: b.cluster, Sessions: sessions,
			Value: b.ks.Statistic(), Threshold: b.ks.Critical(),
			Reason: "session-score distribution departed from the reference window",
		})
	}
	return out
}

func (b *bank) reset() {
	b.ph.Reset()
	b.ks.Reset()
	b.phFired, b.ksFired = false, false
}

// Monitor is the composite online drift detector the adaptation pipeline
// feeds: one Page–Hinkley + KS bank per behavior cluster, one global
// bank (cluster -1, every session regardless of routing — small clusters
// alone would take too long to fill a window), and the global
// unknown-action-rate test. Safe for concurrent use; the engine invokes
// the session-end hook from multiple shard goroutines.
type Monitor struct {
	mu           sync.Mutex
	global       *bank
	clusters     []*bank
	unknown      *UnknownRate
	unknownFired bool
	sessions     uint64
	signals      []Signal
}

// NewMonitor builds the detector bank for the given cluster count.
func NewMonitor(clusters int, cfg Config) (*Monitor, error) {
	if clusters < 1 {
		return nil, fmt.Errorf("drift: monitor needs >= 1 cluster, got %d", clusters)
	}
	m := &Monitor{}
	var err error
	if m.global, err = newBank(-1, &cfg); err != nil {
		return nil, err
	}
	for c := 0; c < clusters; c++ {
		b, err := newBank(c, &cfg)
		if err != nil {
			return nil, err
		}
		m.clusters = append(m.clusters, b)
	}
	if m.unknown, err = NewUnknownRate(cfg.Unknown); err != nil {
		return nil, err
	}
	return m, nil
}

// ObserveSession consumes one finished session: its routed cluster, its
// minimum post-warmup smoothed likelihood (negative = the session never
// scored past the warmup; the likelihood detectors skip it), and its
// scored/unknown action counts. It returns the signals this session
// raised, if any (each detector fires at most once between resets).
func (m *Monitor) ObserveSession(cluster int, minSmoothed float64, known, unknown int) []Signal {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessions++
	var out []Signal
	if minSmoothed >= 0 {
		out = append(out, m.global.observe(minSmoothed, m.sessions)...)
		if cluster >= 0 && cluster < len(m.clusters) {
			out = append(out, m.clusters[cluster].observe(minSmoothed, m.sessions)...)
		}
	}
	if m.unknown.Observe(known, unknown) && !m.unknownFired {
		m.unknownFired = true
		out = append(out, Signal{
			Detector: "unknown-rate", Cluster: -1, Sessions: m.sessions,
			Value: m.unknown.Rate(), Threshold: m.unknown.cfg.MaxRate,
			Reason: "actions outside the model vocabulary exceed the tolerated rate",
		})
	}
	m.signals = append(m.signals, out...)
	if len(m.signals) > maxSignals {
		m.signals = m.signals[len(m.signals)-maxSignals:]
	}
	return out
}

func (m *Monitor) drifted() bool {
	if m.unknownFired || m.global.phFired || m.global.ksFired {
		return true
	}
	for _, b := range m.clusters {
		if b.phFired || b.ksFired {
			return true
		}
	}
	return false
}

// Reset re-arms every detector: the statistics of a freshly swapped
// model generation are a new distribution, so references and running
// means start over. The signal history is kept for the operator.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.global.reset()
	for _, b := range m.clusters {
		b.reset()
	}
	m.unknown.Reset()
	m.unknownFired = false
	m.sessions = 0
}

// BankState is the JSON snapshot of one detector bank.
type BankState struct {
	Cluster      int     `json:"cluster"`
	Observations int     `json:"observations"`
	Mean         float64 `json:"mean"`
	PHStatistic  float64 `json:"ph_statistic"`
	PHLambda     float64 `json:"ph_lambda"`
	PHDrifted    bool    `json:"ph_drifted"`
	KSStatistic  float64 `json:"ks_statistic"`
	KSCritical   float64 `json:"ks_critical"`
	KSReference  int     `json:"ks_reference"`
	KSDrifted    bool    `json:"ks_drifted"`
}

// MonitorState is the JSON snapshot behind misusectl drift.
type MonitorState struct {
	Sessions       uint64      `json:"sessions"`
	Drifted        bool        `json:"drifted"`
	UnknownRate    float64     `json:"unknown_rate"`
	UnknownDrifted bool        `json:"unknown_drifted"`
	Global         BankState   `json:"global"`
	Clusters       []BankState `json:"clusters"`
	Signals        []Signal    `json:"signals,omitempty"`
}

// State snapshots every detector for operator inspection.
func (m *Monitor) State() MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MonitorState{
		Sessions:       m.sessions,
		Drifted:        m.drifted(),
		UnknownRate:    m.unknown.Rate(),
		UnknownDrifted: m.unknownFired,
		Global:         m.global.state(),
		Signals:        append([]Signal(nil), m.signals...),
	}
	for _, b := range m.clusters {
		st.Clusters = append(st.Clusters, b.state())
	}
	return st
}

func (b *bank) state() BankState {
	ksCrit := 0.0
	if b.ks.ReferenceSize() > 0 && len(b.ks.recent) > 0 {
		ksCrit = b.ks.Critical()
	}
	return BankState{
		Cluster:      b.cluster,
		Observations: b.ph.Observations(),
		Mean:         b.ph.Mean(),
		PHStatistic:  b.ph.Statistic(),
		PHLambda:     b.ph.cfg.Lambda,
		PHDrifted:    b.phFired,
		KSStatistic:  b.ks.Statistic(),
		KSCritical:   ksCrit,
		KSReference:  b.ks.ReferenceSize(),
		KSDrifted:    b.ksFired,
	}
}
