package core

import (
	"fmt"

	"misusedetect/internal/scorer"
)

// Idle-session compaction: once the routing vote has frozen (position >=
// RouteVoteActions), a SessionMonitor is its sessionState plus the routed
// cluster's stream — the vote state went at the freeze. SessionSnapshot
// is the same sessionState with that stream in its compacted form;
// Compact and Rehydrate swap the one field, and the rebuilt monitor
// continues with byte-identical scores and alarms (the stream-level
// byte-identity is each backend's StreamCompactor contract).

// monitorStructOverhead approximates the fixed per-monitor cost: the
// SessionMonitor struct itself, its slice headers and stream interface.
const monitorStructOverhead = 192

// voteStructOverhead approximates the voteState struct and its slice
// headers, charged while the vote runs.
const voteStructOverhead = 128

// snapshotStructOverhead approximates the fixed per-snapshot cost.
const snapshotStructOverhead = 160

// MemSize estimates the resident heap bytes of this monitor's
// session-local state — the vote state (route, per-cluster streams,
// tallies and prefix) while the vote runs, then the routed stream, plus
// the trend ring — excluding the shared detector. The engine sums this
// per shard and compares the total against EngineConfig.MemBudget.
func (m *SessionMonitor) MemSize() int {
	n := monitorStructOverhead + cap(m.recent)*8 + scorer.StreamMemSize(m.stream)
	if v := m.vote; v != nil {
		n += voteStructOverhead + cap(v.route)*4 + cap(v.streams)*16 // interface slots
		n += (cap(v.advanced) + cap(v.prefix) + cap(v.votes)) * 8
		for _, st := range v.streams {
			n += scorer.StreamMemSize(st)
		}
	}
	return n
}

// voting reports whether the routing vote is still active — while it
// is, the monitor's footprint can still change (lazy stream creation,
// then the release at the freeze), so the engine re-accounts the
// session per event.
func (m *SessionMonitor) voting() bool { return m.vote != nil }

// SessionSnapshot is the dormant form of one monitored session: the
// monitor's sessionState with the routed cluster's stream compacted. It
// answers the same summary queries as a live monitor, so a compacted
// session can still be evicted with an accurate SessionSummary without
// rehydrating first.
type SessionSnapshot struct {
	sessionState
	stream scorer.StreamSnapshot
}

// Compactable reports whether the monitor is eligible for compaction:
// the routing vote must have frozen (otherwise the vote state is still
// live) and the routed cluster's backend must implement the
// scorer.StreamCompactor seam.
func (m *SessionMonitor) Compactable() bool {
	if m.vote != nil {
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
	if m.vote != nil {
		return nil, fmt.Errorf("core: compact: session at position %d, vote freezes at %d", m.position, m.d.cfg.RouteVoteActions)
	}
	compactor, ok := m.d.clusters[m.cluster].Model.(scorer.StreamCompactor)
	if !ok {
		return nil, fmt.Errorf("core: compact: backend %s does not support compaction", m.d.clusters[m.cluster].Model.Backend())
	}
	snap, err := compactor.CompactStream(m.stream)
	if err != nil {
		return nil, fmt.Errorf("core: compact: %w", err)
	}
	return &SessionSnapshot{sessionState: m.sessionState, stream: snap}, nil
}

// Rehydrate rebuilds a live monitor from the snapshot, taking ownership
// of the snapshot's buffers: the snapshot must not be reused. The
// rebuilt monitor is past its vote, so it holds only the rehydrated
// stream and continues the session with byte-identical scores.
func (s *SessionSnapshot) Rehydrate() (*SessionMonitor, error) {
	compactor, ok := s.d.clusters[s.cluster].Model.(scorer.StreamCompactor)
	if !ok {
		return nil, fmt.Errorf("core: rehydrate: backend %s does not support compaction", s.d.clusters[s.cluster].Model.Backend())
	}
	st, err := compactor.RehydrateStream(s.stream)
	if err != nil {
		return nil, fmt.Errorf("core: rehydrate: %w", err)
	}
	return &SessionMonitor{sessionState: s.sessionState, stream: st}, nil
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
