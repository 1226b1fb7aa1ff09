package ocsvm

import "fmt"

// Featurizer converts encoded sessions (action-index slices) into the
// fixed-length vectors the OC-SVMs consume: raw action counts. Counts
// are deliberately length-sensitive: long sessions drift away from the
// training distribution in RBF space, which reproduces the paper's
// Figure 6 observation that "all the sessions longer than the average
// length are considered to be outliers by all the OC-SVMs". They are
// also integers, which is what lets Router route on exact distances.
type Featurizer struct {
	vocabSize int
}

// NewFeaturizer builds a featurizer over a vocabulary of the given size.
func NewFeaturizer(vocabSize int) (*Featurizer, error) {
	if vocabSize < 1 {
		return nil, fmt.Errorf("ocsvm: vocabSize must be >= 1, got %d", vocabSize)
	}
	return &Featurizer{vocabSize: vocabSize}, nil
}

// Session featurizes one encoded session (or any prefix of one).
func (f *Featurizer) Session(encoded []int) ([]float64, error) {
	x := make([]float64, f.vocabSize)
	for i, a := range encoded {
		if a < 0 || a >= f.vocabSize {
			return nil, fmt.Errorf("ocsvm: position %d action %d outside vocab %d", i, a, f.vocabSize)
		}
		x[a]++
	}
	return x, nil
}

// Corpus featurizes a batch of encoded sessions.
func (f *Featurizer) Corpus(encoded [][]int) ([][]float64, error) {
	out := make([][]float64, len(encoded))
	for i, e := range encoded {
		x, err := f.Session(e)
		if err != nil {
			return nil, fmt.Errorf("ocsvm: session %d: %w", i, err)
		}
		out[i] = x
	}
	return out, nil
}

// PrefixStream incrementally featurizes a growing session, one action at a
// time: Observe returns the feature vector of the prefix seen so far
// without rebuilding it. With Model.ScoreSparse it scores every prefix
// of a session against one OC-SVM: the per-action figures (6 and 7),
// the tests and the bench's replica of the vote use it. The serving
// vote runs on Router instead (see its memory note).
type PrefixStream struct {
	f       *Featurizer
	x       []float64
	nonzero []int
}

// Stream returns a new incremental featurizer. All scratch is allocated
// once here, so the per-action Observe path is allocation-free.
func (f *Featurizer) Stream() *PrefixStream {
	return &PrefixStream{f: f, x: make([]float64, f.vocabSize), nonzero: make([]int, 0, f.vocabSize)}
}

// Observe adds one action and returns the current prefix features. The
// returned slice is reused by the next Observe call; callers must not
// retain it.
func (s *PrefixStream) Observe(action int) ([]float64, error) {
	if action < 0 || action >= s.f.vocabSize {
		return nil, fmt.Errorf("ocsvm: stream action %d outside vocab %d", action, s.f.vocabSize)
	}
	if s.x[action] == 0 {
		s.nonzero = append(s.nonzero, action)
	}
	s.x[action]++
	return s.x, nil
}

// Support returns the indices of the feature vector's nonzero
// coordinates (the distinct actions seen so far), in first-seen order:
// the companion of Model.ScoreSparse. The slice is stream-owned scratch;
// callers must not retain or mutate it.
func (s *PrefixStream) Support() []int { return s.nonzero }
