package core

import (
	"fmt"

	"misusedetect/internal/scorer"
)

// Idle-session compaction: once the routing vote has frozen (position >=
// RouteVoteActions), a SessionMonitor's observable behavior depends only
// on the selected cluster's stream plus a handful of scalars — the vote
// tallies, the prefix buffer, and every other cluster's lazy stream
// slot are never touched again. SessionSnapshot
// captures exactly that residue; Rehydrate rebuilds a monitor that
// continues with byte-identical scores and alarms (the stream-level
// byte-identity is each backend's StreamCompactor contract).

// monitorStructOverhead approximates the fixed per-monitor cost: the
// SessionMonitor struct itself plus its slice headers.
const monitorStructOverhead = 256

// snapshotStructOverhead approximates the fixed per-snapshot cost.
const snapshotStructOverhead = 128

// MemSize estimates the resident heap bytes of this monitor's
// session-local state — route state (until the vote freezes),
// per-cluster streams, vote and trend buffers — excluding the shared
// detector. The engine sums this per shard and compares the total
// against EngineConfig.MemBudget.
func (m *SessionMonitor) MemSize() int {
	n := monitorStructOverhead + cap(m.route)*4
	for _, st := range m.streams {
		n += scorer.StreamMemSize(st)
	}
	n += cap(m.streams) * 16 // interface slots
	n += (cap(m.advanced) + cap(m.prefix) + cap(m.votes) + cap(m.recent)) * 8
	return n
}

// voting reports whether the routing vote is still active — while it
// is, the monitor's footprint can still grow (lazy stream creation,
// prefix buffering), so the engine re-accounts the session per event.
func (m *SessionMonitor) voting() bool { return m.position < m.d.cfg.RouteVoteActions }

// SessionSnapshot is the dormant form of one monitored session: the
// routed cluster's compacted stream plus the monitor scalars and trend
// ring. It answers the same summary queries as a live monitor, so a
// compacted session can still be evicted with an accurate
// SessionSummary without rehydrating first.
type SessionSnapshot struct {
	d         *Detector
	mcfg      MonitorConfig
	cluster   int
	position  int
	smoothed  float64
	warmMin   float64
	recent    []float64
	recentPos int
	recentN   int
	stream    scorer.StreamSnapshot
}

// Compactable reports whether the monitor is eligible for compaction:
// the routing vote must have frozen (otherwise the vote tallies and
// prefix buffer are still live state) and the routed cluster's backend
// must implement the scorer.StreamCompactor seam.
func (m *SessionMonitor) Compactable() bool {
	if m.position < m.d.cfg.RouteVoteActions {
		return false
	}
	if m.streams[m.cluster] == nil {
		return false
	}
	_, ok := m.d.clusters[m.cluster].Model.(scorer.StreamCompactor)
	return ok
}

// Compact collapses the monitor into its snapshot, taking ownership of
// the monitor's buffers: the monitor must not be used afterwards. It is
// an error to compact a monitor whose routing vote has not frozen or
// whose backend does not support compaction (check Compactable first on
// hot paths).
func (m *SessionMonitor) Compact() (*SessionSnapshot, error) {
	if m.position < m.d.cfg.RouteVoteActions {
		return nil, fmt.Errorf("core: compact: session at position %d, vote freezes at %d", m.position, m.d.cfg.RouteVoteActions)
	}
	st := m.streams[m.cluster]
	if st == nil {
		return nil, fmt.Errorf("core: compact: cluster %d has no stream", m.cluster)
	}
	compactor, ok := m.d.clusters[m.cluster].Model.(scorer.StreamCompactor)
	if !ok {
		return nil, fmt.Errorf("core: compact: backend %s does not support compaction", m.d.clusters[m.cluster].Model.Backend())
	}
	snap, err := compactor.CompactStream(st)
	if err != nil {
		return nil, fmt.Errorf("core: compact: %w", err)
	}
	return &SessionSnapshot{
		d:         m.d,
		mcfg:      m.mcfg,
		cluster:   m.cluster,
		position:  m.position,
		smoothed:  m.smoothed,
		warmMin:   m.warmMin,
		recent:    m.recent,
		recentPos: m.recentPos,
		recentN:   m.recentN,
		stream:    snap,
	}, nil
}

// Rehydrate rebuilds a live monitor from the snapshot, taking ownership
// of the snapshot's buffers: the snapshot must not be reused. The
// rebuilt monitor continues the session with byte-identical scores —
// post-freeze the vote branch of StageToken never runs, so the absent
// route state, vote tallies, and prefix buffer are unreachable state.
func (s *SessionSnapshot) Rehydrate() (*SessionMonitor, error) {
	compactor, ok := s.d.clusters[s.cluster].Model.(scorer.StreamCompactor)
	if !ok {
		return nil, fmt.Errorf("core: rehydrate: backend %s does not support compaction", s.d.clusters[s.cluster].Model.Backend())
	}
	st, err := compactor.RehydrateStream(s.stream)
	if err != nil {
		return nil, fmt.Errorf("core: rehydrate: %w", err)
	}
	m := &SessionMonitor{
		d:         s.d,
		mcfg:      s.mcfg,
		streams:   make([]scorer.Stream, len(s.d.clusters)),
		advanced:  make([]int, len(s.d.clusters)),
		cluster:   s.cluster,
		position:  s.position,
		smoothed:  s.smoothed,
		warmMin:   s.warmMin,
		recent:    s.recent,
		recentPos: s.recentPos,
		recentN:   s.recentN,
	}
	m.streams[s.cluster] = st
	// The stream has observed exactly the session so far; mark it caught
	// up so StageToken's lazy catch-up loop never replays the prefix
	// (which a compacted session no longer buffers).
	m.advanced[s.cluster] = s.position
	return m, nil
}

// MemSize estimates the resident heap bytes of the snapshot — the
// compacted stream plus the trend ring.
func (s *SessionSnapshot) MemSize() int {
	n := snapshotStructOverhead + cap(s.recent)*8
	if s.stream != nil {
		n += s.stream.MemSize()
	}
	return n
}

// Cluster returns the routed behavior cluster (frozen at compaction).
func (s *SessionSnapshot) Cluster() int { return s.cluster }

// Position returns the number of observed actions.
func (s *SessionSnapshot) Position() int { return s.position }

// Smoothed returns the EWMA of the likelihood at compaction time.
func (s *SessionSnapshot) Smoothed() float64 { return s.smoothed }

// MinSmoothed returns the minimum post-warmup smoothed likelihood seen
// before compaction (-1 when the session never scored past the warmup).
func (s *SessionSnapshot) MinSmoothed() float64 { return s.warmMin }
