package baseline

import "misusedetect/internal/scorer"

// Memory accounting for the classical backends. The n-gram stream is its
// trailing context window and action count, the HMM stream its
// filtering distribution and prediction scratch; the vocab-sized
// predictive distribution exists only once a caller has asked for it
// through Observe (the serving path never does).
var (
	_ scorer.Stream = (*ngramStream)(nil)
	_ scorer.Stream = (*hmmStream)(nil)
)

// streamStructOverhead approximates the fixed per-stream struct and
// slice-header cost in the accounting estimates below.
const streamStructOverhead = 96

// MemSize estimates the resident heap bytes of one n-gram stream.
func (s *ngramStream) MemSize() int {
	return len(s.ctx)*8 + len(s.dist)*8 + streamStructOverhead
}

// MemSize estimates the resident heap bytes of one HMM stream.
func (s *hmmStream) MemSize() int {
	return (len(s.alpha)+len(s.pred)+len(s.dist))*8 + streamStructOverhead
}
