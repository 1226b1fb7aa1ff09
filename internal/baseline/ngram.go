// Package baseline implements the comparison models of the evaluation:
// the paper's own two baselines are LSTM language models trained on the
// whole dataset and on arbitrary size-matched subsets (built from package
// lm by the core pipeline); this package adds two classical baselines the
// paper cites — an interpolated n-gram language model (Chen & Goodman
// 1996) and a handcrafted-feature anomaly detector in the style of
// Kruegel & Vigna (2003), using session length and action-distribution
// statistics.
package baseline

import (
	"fmt"
	"math"

	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

// NGramConfig configures the n-gram language model.
type NGramConfig struct {
	// Order is the maximum n-gram length (3 = trigram).
	Order int
	// Discount is the absolute-discounting mass in (0,1) redistributed
	// to lower orders (Chen & Goodman style interpolated smoothing).
	Discount float64
}

// DefaultNGramConfig returns an interpolated trigram model.
func DefaultNGramConfig() NGramConfig { return NGramConfig{Order: 3, Discount: 0.5} }

func (c *NGramConfig) validate() error {
	if c.Order < 1 {
		return fmt.Errorf("baseline: Order must be >= 1, got %d", c.Order)
	}
	if c.Discount <= 0 || c.Discount >= 1 {
		return fmt.Errorf("baseline: Discount %v outside (0,1)", c.Discount)
	}
	return nil
}

// NGram is an interpolated absolute-discounting n-gram language model
// over action indices, the classical counterpart of the LSTM models.
type NGram struct {
	cfg   NGramConfig
	vocab int
	// counts[k] maps a context key of length k to (total, per-action counts).
	counts []map[string]*contextCount
}

type contextCount struct {
	total   float64
	actions map[int]float64
}

// TrainNGram fits the model on encoded sessions.
func TrainNGram(sessions [][]int, vocab int, cfg NGramConfig) (*NGram, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if vocab < 1 {
		return nil, fmt.Errorf("baseline: vocab must be >= 1, got %d", vocab)
	}
	m := &NGram{cfg: cfg, vocab: vocab, counts: make([]map[string]*contextCount, cfg.Order)}
	for k := range m.counts {
		m.counts[k] = make(map[string]*contextCount)
	}
	trained := false
	for si, s := range sessions {
		for i, a := range s {
			if a < 0 || a >= vocab {
				return nil, fmt.Errorf("baseline: session %d position %d action %d outside vocab", si, i, a)
			}
		}
		if len(s) < 2 {
			continue
		}
		trained = true
		for i := 1; i < len(s); i++ {
			for k := 0; k < cfg.Order; k++ {
				if i-k < 0 {
					break
				}
				key := contextKey(s[i-k : i])
				cc, ok := m.counts[k][key]
				if !ok {
					cc = &contextCount{actions: make(map[int]float64)}
					m.counts[k][key] = cc
				}
				cc.total++
				cc.actions[s[i]]++
			}
		}
	}
	if !trained {
		return nil, fmt.Errorf("baseline: no trainable sessions")
	}
	return m, nil
}

func contextKey(ctx []int) string {
	// Compact deterministic key; contexts are short (Order-1 <= ~4).
	return string(appendContextKey(make([]byte, 0, len(ctx)*3), ctx))
}

func appendContextKey(b []byte, ctx []int) []byte {
	for _, a := range ctx {
		b = append(b, byte(a), byte(a>>8), ',')
	}
	return b
}

// Prob returns the smoothed probability of the action following the
// context: an interpolation of all orders down to the uniform
// distribution, with absolute discounting at each level.
func (m *NGram) Prob(context []int, action int) (float64, error) {
	if action < 0 || action >= m.vocab {
		return 0, fmt.Errorf("baseline: action %d outside vocab %d", action, m.vocab)
	}
	p, _ := m.probReuse(context, action, nil)
	return p, nil
}

// probReuse is Prob without validation or key allocations: keyBuf is
// reused for the count lookups and the (possibly grown) buffer is
// returned, so streaming callers stay allocation-free.
func (m *NGram) probReuse(context []int, action int, keyBuf []byte) (float64, []byte) {
	p := 1 / float64(m.vocab) // order-(-1): uniform backstop
	maxK := m.cfg.Order - 1
	if len(context) < maxK {
		maxK = len(context)
	}
	for k := 0; k <= maxK; k++ {
		keyBuf = appendContextKey(keyBuf[:0], context[len(context)-k:])
		cc, ok := m.counts[k][string(keyBuf)]
		if !ok || cc.total == 0 {
			continue
		}
		c := cc.actions[action]
		distinct := float64(len(cc.actions))
		d := m.cfg.Discount
		higher := math.Max(c-d, 0) / cc.total
		lambda := d * distinct / cc.total
		p = higher + lambda*p
	}
	return p, keyBuf
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
// Order-1 actions as context and reuses its distribution and key
// buffers, so steady-state streaming performs no per-action allocations.
// The vocab-sized distribution is built by the first Observe: a stream
// driven only through ObserveLikelihood never allocates it.
func (m *NGram) NewStream() scorer.Stream {
	return &ngramStream{m: m, ctx: make([]int, 0, m.cfg.Order-1)}
}

// ngramStream is the online adapter over NGram: the same interpolated
// smoothing as Prob, evaluated over the whole vocabulary each step so
// the predictive distribution (and with it argmax accuracy) is
// available to the monitor.
type ngramStream struct {
	m *NGram
	// ctx holds the last Order-1 observed actions.
	ctx []int
	// dist is the prediction for the upcoming action, allocated by the
	// first Observe and reused by every later one (ObserveLikelihood
	// skips it).
	dist tensor.Vector
	// keyBuf is the reusable context-key buffer for count lookups.
	keyBuf []byte
	seen   int
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
	s.keyBuf = s.m.nextDist(s.ctx, s.dist, s.keyBuf)
	return lik, s.dist, nil
}

// ObserveLikelihood is the scorer.LikelihoodStream fast path: the same
// stream advance as Observe, O(Order) instead of O(Order x vocab),
// because no predictive distribution is materialized. This is what the
// engine's monitor pays per (event, cluster).
func (s *ngramStream) ObserveLikelihood(action int) (float64, error) {
	if action < 0 || action >= s.m.vocab {
		return 0, fmt.Errorf("baseline: ngram stream action %d outside vocab %d", action, s.m.vocab)
	}
	lik := -1.0
	if s.seen > 0 {
		lik, s.keyBuf = s.m.probReuse(s.ctx, action, s.keyBuf)
	}
	if s.m.cfg.Order > 1 {
		if len(s.ctx) == s.m.cfg.Order-1 {
			copy(s.ctx, s.ctx[1:])
			s.ctx[len(s.ctx)-1] = action
		} else {
			s.ctx = append(s.ctx, action)
		}
	}
	s.seen++
	return lik, nil
}

// nextDist writes the smoothed next-action distribution for the context
// into dist: the same order-by-order interpolation as Prob, vectorized
// over the vocabulary. keyBuf is reused for the count lookups and the
// (possibly grown) buffer is returned.
func (m *NGram) nextDist(ctx []int, dist tensor.Vector, keyBuf []byte) []byte {
	uniform := 1 / float64(m.vocab)
	for i := range dist {
		dist[i] = uniform
	}
	maxK := m.cfg.Order - 1
	if len(ctx) < maxK {
		maxK = len(ctx)
	}
	for k := 0; k <= maxK; k++ {
		keyBuf = appendContextKey(keyBuf[:0], ctx[len(ctx)-k:])
		cc, ok := m.counts[k][string(keyBuf)]
		if !ok || cc.total == 0 {
			continue
		}
		d := m.cfg.Discount
		lambda := d * float64(len(cc.actions)) / cc.total
		for i := range dist {
			dist[i] *= lambda
		}
		for a, c := range cc.actions {
			dist[a] += math.Max(c-d, 0) / cc.total
		}
	}
	return keyBuf
}
