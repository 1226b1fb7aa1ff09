package lm

import (
	"fmt"

	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// Idle-state compaction for the LSTM backend. A live stream is already
// only its recurrent state (H, C) and whether it has consumed an action
// — the next prediction is recomputed from H when the next action
// arrives — so the stream is its own snapshot: compaction and
// rehydration move it whole, with no copy and no arithmetic. The
// assertions pin the seams from this side, mirroring how the Stream
// contract is pinned in lm.go.
var (
	_ scorer.StreamCompactor = (*Model)(nil)
	_ scorer.MemSizer        = (*nn.StreamState)(nil)
)

// CompactStream returns one of this model's streams as its own snapshot.
func (m *Model) CompactStream(st scorer.Stream) (scorer.StreamSnapshot, error) {
	ns, ok := st.(*nn.StreamState)
	if !ok {
		return nil, fmt.Errorf("lm: compact: foreign stream type %T", st)
	}
	return ns, nil
}

// RehydrateStream returns the stream a CompactStream snapshot holds; it
// continues with exactly the likelihoods the uninterrupted stream would
// have returned, because it is that stream.
func (m *Model) RehydrateStream(snap scorer.StreamSnapshot) (scorer.Stream, error) {
	ns, ok := snap.(*nn.StreamState)
	if !ok {
		return nil, fmt.Errorf("lm: rehydrate: foreign snapshot type %T", snap)
	}
	return ns, nil
}
