package core

import "fmt"

// Idle-session compaction: once the routing vote has frozen (position >=
// RouteVoteActions), a SessionMonitor holds only what the session still
// needs — the routed cluster's stream and the alarm scalars, no vote
// state and no scratch — so the frozen monitor is its own snapshot.
// SessionSnapshot is that struct under a type with no scoring methods,
// which keeps a dormant session from being scored by mistake. Compact
// and Rehydrate convert the pointer and copy nothing, so a woken session
// continues with byte-identical scores and alarms: it is the same state,
// on every backend.

// monitorStructOverhead approximates the fixed per-monitor cost: the
// SessionMonitor struct itself, its slice headers and stream interface.
const monitorStructOverhead = 192

// voteStructOverhead approximates the voteState struct and its slice
// headers, charged while the vote runs.
const voteStructOverhead = 128

// MemSize estimates the resident heap bytes of this monitor's
// session-local state — the routed stream and the trend ring, plus the
// vote state (route, tallies and prefix) while the vote runs — excluding
// the shared detector. The engine sums this per shard and compares the
// total against EngineConfig.MemBudget.
func (m *SessionMonitor) MemSize() int {
	n := monitorStructOverhead + cap(m.recent)*8
	if m.stream != nil {
		n += m.stream.MemSize()
	}
	if v := m.vote; v != nil {
		n += voteStructOverhead + (cap(v.route)+cap(v.prefix)+cap(v.votes))*4
	}
	return n
}

// voting reports whether the routing vote is still active — while it
// is, the monitor's footprint can still change (the first stream, a new
// leader's replayed stream, then the release at the freeze), so the
// engine re-accounts the session per event.
func (m *SessionMonitor) voting() bool { return m.vote != nil }

// SessionSnapshot is the dormant form of one monitored session: its
// frozen SessionMonitor, which only Rehydrate turns back into one.
type SessionSnapshot SessionMonitor

// Compactable reports whether the monitor is eligible for compaction:
// its routing vote has frozen, so it holds no vote state.
func (m *SessionMonitor) Compactable() bool { return m.vote == nil }

// Compact returns the monitor as its dormant snapshot. The two share all
// state, so the monitor must not be used afterwards. It is an error to
// compact a monitor whose routing vote has not frozen (check Compactable
// first on hot paths).
func (m *SessionMonitor) Compact() (*SessionSnapshot, error) {
	if m.vote != nil {
		return nil, fmt.Errorf("core: compact: session at position %d, vote freezes at %d", m.position, m.d.cfg.RouteVoteActions)
	}
	return (*SessionSnapshot)(m), nil
}

// Rehydrate returns the live monitor the snapshot is; it never fails.
// The snapshot must not be used afterwards.
func (s *SessionSnapshot) Rehydrate() (*SessionMonitor, error) {
	return (*SessionMonitor)(s), nil
}

// MemSize estimates the resident heap bytes of the snapshot: those of
// the frozen monitor it is.
func (s *SessionSnapshot) MemSize() int { return (*SessionMonitor)(s).MemSize() }
