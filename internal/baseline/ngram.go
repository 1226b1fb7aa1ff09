// Package baseline implements the comparison models of the evaluation:
// the paper's own two baselines are LSTM language models trained on the
// whole dataset and on arbitrary size-matched subsets (built from package
// nn by the core pipeline); this package adds two classical baselines the
// paper cites — an interpolated n-gram language model (Chen & Goodman
// 1996) and a handcrafted-feature anomaly detector in the style of
// Kruegel & Vigna (2003), using session length and action-distribution
// statistics.
package baseline

import (
	"fmt"
	"math"
	"slices"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

const (
	// ngramOrder is the maximum n-gram length: an interpolated trigram.
	ngramOrder = 3
	// ngramDiscount is the absolute-discounting mass redistributed to
	// lower orders (Chen & Goodman style interpolated smoothing).
	ngramDiscount = 0.5
)

// NGram is an interpolated absolute-discounting n-gram language model
// over action indices, the classical counterpart of the LSTM models.
//
// A context of up to ngramOrder-1 actions is keyed by its actions as
// base-(V+1) digits a+1, the most recent action lowest, so contexts of
// different lengths never share a key; the empty context is key 0. A
// gram is keyed as its context followed by its action: ctxKey*(V+1) +
// action + 1.
type NGram struct {
	vocab int
	// ctx holds each counted context's total count and number of
	// distinct following actions.
	ctx map[uint64]contextCount
	// grams holds each counted gram's count.
	grams map[uint64]float64
}

type contextCount struct {
	total, distinct float64
}

// newNGram returns an empty model, refusing a vocabulary above
// actionlog.MaxVocabSize, the bound every model loader keeps; it is
// what TrainNGram and LoadNGram build on, so the two refuse alike. Gram
// keys within it fit a uint64: the largest is (V+1)^3 - 1 < 2^61.
func newNGram(vocab int) (*NGram, error) {
	if vocab < 1 || vocab > actionlog.MaxVocabSize {
		return nil, fmt.Errorf("baseline: ngram vocab %d outside [1, %d]", vocab, actionlog.MaxVocabSize)
	}
	return &NGram{vocab: vocab, ctx: make(map[uint64]contextCount), grams: make(map[uint64]float64)}, nil
}

// TrainNGram fits the model on encoded sessions.
func TrainNGram(sessions [][]int, vocab int) (*NGram, error) {
	m, err := newNGram(vocab)
	if err != nil {
		return nil, err
	}
	trained := false
	for si, s := range sessions {
		trained = trained || len(s) > 1
		for i, a := range s {
			if a < 0 || a >= vocab {
				return nil, fmt.Errorf("baseline: session %d position %d action %d outside vocab", si, i, a)
			}
			// Every gram ending at position i > 0, down to the empty context.
			for j := max(i+1-ngramOrder, 0); i > 0 && j <= i; j++ {
				m.add(m.key(s[j:i+1]), 1)
			}
		}
	}
	if !trained {
		return nil, fmt.Errorf("baseline: no trainable sessions")
	}
	return m, nil
}

// key keys a context of at most ngramOrder-1 in-vocab actions, or a
// gram given as its context followed by its action.
func (m *NGram) key(actions []int) uint64 {
	var key uint64
	for _, a := range actions {
		key = key*uint64(m.vocab+1) + uint64(a+1)
	}
	return key
}

// add counts n more occurrences of the gram keyed g; training and
// loading build the tables through it alone.
func (m *NGram) add(g uint64, n float64) {
	ctxKey := g / uint64(m.vocab+1)
	c := m.ctx[ctxKey]
	if m.grams[g] == 0 {
		c.distinct++
	}
	c.total += n
	m.ctx[ctxKey] = c
	m.grams[g] += n
}

// Prob returns the smoothed probability of the action following the
// context: an interpolation of all orders down to the uniform
// distribution, with absolute discounting at each level.
func (m *NGram) Prob(context []int, action int) (float64, error) {
	outside := func(a int) bool { return a < 0 || a >= m.vocab }
	if outside(action) || slices.ContainsFunc(context, outside) {
		return 0, fmt.Errorf("baseline: action %d after context %v outside vocab %d", action, context, m.vocab)
	}
	return m.prob(context, action), nil
}

// prob is Prob without validation: context and action must be in vocab.
func (m *NGram) prob(context []int, action int) float64 {
	p := 1 / float64(m.vocab) // order-(-1): uniform backstop
	for k := 0; k <= min(len(context), ngramOrder-1); k++ {
		ck := m.key(context[len(context)-k:])
		cc, ok := m.ctx[ck]
		if !ok {
			continue
		}
		c := m.grams[ck*uint64(m.vocab+1)+uint64(action+1)]
		higher := math.Max(c-ngramDiscount, 0) / cc.total
		lambda := ngramDiscount * cc.distinct / cc.total
		p = higher + lambda*p
	}
	return p
}

// BackendNGram is the scorer-registry tag of the n-gram model.
const BackendNGram = "ngram"

// NGram is a scorer.Scorer, so it can serve as a first-class online
// detector backend in internal/core.
var _ scorer.Scorer = (*NGram)(nil)

// Backend returns the scorer-registry tag of this model family.
func (m *NGram) Backend() string { return BackendNGram }

// VocabSize returns the action-vocabulary size the model was trained on.
func (m *NGram) VocabSize() int { return m.vocab }

// NewStream returns an incremental per-action scorer: it keeps the last
// ngramOrder-1 actions as context, so steady-state streaming performs no
// per-action allocations. The vocab-sized distribution is built by the
// first Observe: a stream driven only through ObserveLikelihood never
// allocates it.
func (m *NGram) NewStream() scorer.Stream {
	return &ngramStream{m: m}
}

// ngramStream is the online adapter over NGram: the same interpolated
// smoothing as Prob, evaluated over the whole vocabulary each Observe so
// the predictive distribution (and with it argmax accuracy) is
// available to the monitor.
type ngramStream struct {
	m *NGram
	// ctx holds the last ngramOrder-1 observed actions, the most recent
	// last; only the last min(seen, ngramOrder-1) are actions.
	ctx [ngramOrder - 1]int
	// dist is the prediction for the upcoming action, allocated by the
	// first Observe and reused by every later one (ObserveLikelihood
	// skips it).
	dist tensor.Vector
	seen int
}

// Observe consumes the next action: the returned likelihood is exactly
// Prob(prefix, action) (-1 for the first action, mirroring the LSTM
// stream), and the returned distribution predicts the following action.
// The distribution is a scratch buffer valid until the next Observe.
func (s *ngramStream) Observe(action int) (float64, tensor.Vector, error) {
	lik, err := s.ObserveLikelihood(action)
	if err != nil {
		return 0, nil, err
	}
	if s.dist == nil {
		s.dist = tensor.NewVector(s.m.vocab)
	}
	ctx := s.ctx[len(s.ctx)-min(s.seen, len(s.ctx)):]
	for a := range s.dist {
		s.dist[a] = s.m.prob(ctx, a)
	}
	return lik, s.dist, nil
}

// ObserveLikelihood is the serving path's advance: the same stream
// advance as Observe, O(order) instead of O(order x vocab), because no
// predictive distribution is materialized. This is what the engine's
// monitor pays per event.
func (s *ngramStream) ObserveLikelihood(action int) (float64, error) {
	if action < 0 || action >= s.m.vocab {
		return 0, fmt.Errorf("baseline: ngram stream action %d outside vocab %d", action, s.m.vocab)
	}
	lik := -1.0
	if s.seen > 0 {
		lik = s.m.prob(s.ctx[len(s.ctx)-min(s.seen, len(s.ctx)):], action)
	}
	copy(s.ctx[:], s.ctx[1:])
	s.ctx[len(s.ctx)-1] = action
	s.seen++
	return lik, nil
}
