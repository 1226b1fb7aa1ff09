package baseline

import (
	"fmt"

	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

// Memory accounting and idle-state compaction for the classical
// backends. The n-gram stream is fully described by its trailing context
// window and action count, the HMM stream by its filtering distribution;
// a snapshot keeps exactly that. The vocab-sized predictive distribution
// exists only once a caller has asked for it through Observe (the
// serving path never does), so a snapshot drops it and a rehydrated
// stream starts without it, as a new one does. Rehydration reallocates
// only the HMM's states-sized prediction scratch; the recurrence state
// transfers, so scores continue byte-identically.
var (
	_ scorer.StreamCompactor = (*NGram)(nil)
	_ scorer.StreamCompactor = (*HMM)(nil)
	_ scorer.MemSizer        = (*ngramStream)(nil)
	_ scorer.MemSizer        = (*hmmStream)(nil)
)

// streamStructOverhead approximates the fixed per-stream struct and
// slice-header cost in the accounting estimates below.
const streamStructOverhead = 96

// MemSize estimates the resident heap bytes of one n-gram stream.
func (s *ngramStream) MemSize() int {
	return cap(s.ctx)*8 + len(s.dist)*8 + cap(s.keyBuf) + streamStructOverhead
}

// ngramSnapshot is the compact dormant form of one n-gram stream: the
// trailing context window and the action count.
type ngramSnapshot struct {
	ctx  []int
	seen int
}

// MemSize implements scorer.StreamSnapshot.
func (s *ngramSnapshot) MemSize() int { return cap(s.ctx)*8 + 48 }

// CompactStream collapses one of this model's streams, keeping the
// context window (whose capacity the shift logic relies on) and
// dropping the vocab-sized distribution and key buffers.
func (m *NGram) CompactStream(st scorer.Stream) (scorer.StreamSnapshot, error) {
	ns, ok := st.(*ngramStream)
	if !ok {
		return nil, fmt.Errorf("baseline: ngram compact: foreign stream type %T", st)
	}
	return &ngramSnapshot{ctx: ns.ctx, seen: ns.seen}, nil
}

// RehydrateStream rebuilds a live stream from a CompactStream snapshot.
func (m *NGram) RehydrateStream(snap scorer.StreamSnapshot) (scorer.Stream, error) {
	ss, ok := snap.(*ngramSnapshot)
	if !ok {
		return nil, fmt.Errorf("baseline: ngram rehydrate: foreign snapshot type %T", snap)
	}
	ctx := ss.ctx
	if cap(ctx) < m.cfg.Order-1 {
		// Defensive: the shift-vs-append logic needs the full window
		// capacity, which NewStream always allocates.
		grown := make([]int, len(ctx), m.cfg.Order-1)
		copy(grown, ctx)
		ctx = grown
	}
	return &ngramStream{m: m, ctx: ctx, seen: ss.seen}, nil
}

// MemSize estimates the resident heap bytes of one HMM stream.
func (s *hmmStream) MemSize() int {
	return (len(s.alpha)+len(s.pred)+len(s.dist))*8 + streamStructOverhead
}

// hmmSnapshot is the compact dormant form of one HMM stream: the
// filtering distribution over hidden states.
type hmmSnapshot struct {
	alpha   tensor.Vector
	started bool
}

// MemSize implements scorer.StreamSnapshot.
func (s *hmmSnapshot) MemSize() int { return len(s.alpha)*8 + 48 }

// CompactStream collapses one of this model's streams, keeping the
// states-sized filtering distribution and dropping the prediction
// scratch and the vocab-sized predictive distribution.
func (m *HMM) CompactStream(st scorer.Stream) (scorer.StreamSnapshot, error) {
	hs, ok := st.(*hmmStream)
	if !ok {
		return nil, fmt.Errorf("baseline: hmm compact: foreign stream type %T", st)
	}
	return &hmmSnapshot{alpha: hs.alpha, started: hs.started}, nil
}

// RehydrateStream rebuilds a live stream from a CompactStream snapshot.
func (m *HMM) RehydrateStream(snap scorer.StreamSnapshot) (scorer.Stream, error) {
	ss, ok := snap.(*hmmSnapshot)
	if !ok {
		return nil, fmt.Errorf("baseline: hmm rehydrate: foreign snapshot type %T", snap)
	}
	if len(ss.alpha) != m.states {
		return nil, fmt.Errorf("baseline: hmm rehydrate: state size %d, want %d", len(ss.alpha), m.states)
	}
	return &hmmStream{
		m:       m,
		alpha:   ss.alpha,
		pred:    tensor.NewVector(m.states),
		started: ss.started,
	}, nil
}
