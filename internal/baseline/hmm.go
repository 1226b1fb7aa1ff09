package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

// HMMConfig configures the hidden Markov model baseline. The paper's
// related work (Yeung & Ding 2003) models host behavior with discrete
// HMMs; this implementation lets the repository compare the LSTM language
// models against the classical sequence model they superseded.
type HMMConfig struct {
	// States is the number of hidden states.
	States int
	// Iterations of Baum-Welch (EM) training.
	Iterations int
	// Seed initializes the parameters.
	Seed int64
}

// DefaultHMMConfig returns a small HMM suitable for session modeling.
func DefaultHMMConfig(seed int64) HMMConfig {
	return HMMConfig{States: 8, Iterations: 15, Seed: seed}
}

func (c *HMMConfig) validate() error {
	if c.States < 1 {
		return fmt.Errorf("baseline: HMM States must be >= 1, got %d", c.States)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("baseline: HMM Iterations must be >= 1, got %d", c.Iterations)
	}
	return nil
}

// HMM is a discrete hidden Markov model over action indices, trained with
// Baum-Welch and scored with the forward algorithm (scaled to avoid
// underflow).
type HMM struct {
	states int
	vocab  int
	// initial[i] is the start probability of state i.
	initial tensor.Vector
	// trans is states x states; row i is the transition distribution
	// out of state i.
	trans *tensor.Matrix
	// emit is states x vocab; row i is the emission distribution of
	// state i.
	emit *tensor.Matrix
}

// TrainHMM fits an HMM on the encoded sessions via Baum-Welch. Sessions
// shorter than one action are skipped.
func TrainHMM(sessions [][]int, vocab int, cfg HMMConfig) (*HMM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if vocab < 1 {
		return nil, fmt.Errorf("baseline: vocab must be >= 1, got %d", vocab)
	}
	var train [][]int
	for si, s := range sessions {
		for i, a := range s {
			if a < 0 || a >= vocab {
				return nil, fmt.Errorf("baseline: session %d position %d action %d outside vocab", si, i, a)
			}
		}
		if len(s) >= 1 {
			train = append(train, s)
		}
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("baseline: no trainable sessions")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &HMM{
		states:  cfg.States,
		vocab:   vocab,
		initial: randomDist(cfg.States, rng),
		trans:   randomStochastic(cfg.States, cfg.States, rng),
		emit:    randomStochastic(cfg.States, vocab, rng),
	}
	for it := 0; it < cfg.Iterations; it++ {
		m.baumWelchSweep(train)
	}
	return m, nil
}

func randomDist(n int, rng *rand.Rand) tensor.Vector {
	v := tensor.NewVector(n)
	var sum float64
	for i := range v {
		v[i] = 0.5 + rng.Float64()
		sum += v[i]
	}
	v.Scale(1 / sum)
	return v
}

func randomStochastic(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		copy(m.Row(i), randomDist(cols, rng))
	}
	return m
}

// forwardScaled runs the scaled forward algorithm; it returns the scaled
// alpha matrix (T x states), the per-step scaling factors, and the total
// log-likelihood of the sequence.
func (m *HMM) forwardScaled(seq []int) (alpha *tensor.Matrix, scales tensor.Vector, logLik float64) {
	T := len(seq)
	alpha = tensor.NewMatrix(T, m.states)
	scales = tensor.NewVector(T)
	for i := 0; i < m.states; i++ {
		alpha.Set(0, i, m.initial[i]*m.emit.At(i, seq[0]))
	}
	for t := 0; t < T; t++ {
		if t > 0 {
			prev := alpha.Row(t - 1)
			row := alpha.Row(t)
			for j := 0; j < m.states; j++ {
				var s float64
				for i := 0; i < m.states; i++ {
					s += prev[i] * m.trans.At(i, j)
				}
				row[j] = s * m.emit.At(j, seq[t])
			}
		}
		row := alpha.Row(t)
		c := row.Sum()
		if c == 0 {
			c = 1e-300
		}
		row.Scale(1 / c)
		scales[t] = c
		logLik += math.Log(c)
	}
	return alpha, scales, logLik
}

// backwardScaled runs the scaled backward pass with the forward scales.
func (m *HMM) backwardScaled(seq []int, scales tensor.Vector) *tensor.Matrix {
	T := len(seq)
	beta := tensor.NewMatrix(T, m.states)
	last := beta.Row(T - 1)
	for i := range last {
		last[i] = 1 / scales[T-1]
	}
	for t := T - 2; t >= 0; t-- {
		next := beta.Row(t + 1)
		row := beta.Row(t)
		for i := 0; i < m.states; i++ {
			var s float64
			for j := 0; j < m.states; j++ {
				s += m.trans.At(i, j) * m.emit.At(j, seq[t+1]) * next[j]
			}
			row[i] = s / scales[t]
		}
	}
	return beta
}

// baumWelchSweep performs one EM update over the corpus.
func (m *HMM) baumWelchSweep(train [][]int) {
	initAcc := tensor.NewVector(m.states)
	transAcc := tensor.NewMatrix(m.states, m.states)
	emitAcc := tensor.NewMatrix(m.states, m.vocab)
	stateAcc := tensor.NewVector(m.states)      // expected visits (for emission rows)
	stateTransAcc := tensor.NewVector(m.states) // expected transitions out (for transition rows)

	for _, seq := range train {
		T := len(seq)
		alpha, scales, _ := m.forwardScaled(seq)
		beta := m.backwardScaled(seq, scales)
		// gamma_t(i) propto alpha_t(i) * beta_t(i) * scales[t]; with this
		// scaling it is already normalized.
		for t := 0; t < T; t++ {
			arow := alpha.Row(t)
			brow := beta.Row(t)
			for i := 0; i < m.states; i++ {
				g := arow[i] * brow[i] * scales[t]
				if t == 0 {
					initAcc[i] += g
				}
				emitAcc.Set(i, seq[t], emitAcc.At(i, seq[t])+g)
				stateAcc[i] += g
				if t < T-1 {
					stateTransAcc[i] += g
				}
			}
		}
		// xi_t(i,j) = alpha_t(i) trans(i,j) emit(j, o_{t+1}) beta_{t+1}(j).
		for t := 0; t < T-1; t++ {
			arow := alpha.Row(t)
			brow := beta.Row(t + 1)
			for i := 0; i < m.states; i++ {
				if arow[i] == 0 {
					continue
				}
				for j := 0; j < m.states; j++ {
					xi := arow[i] * m.trans.At(i, j) * m.emit.At(j, seq[t+1]) * brow[j]
					transAcc.Set(i, j, transAcc.At(i, j)+xi)
				}
			}
		}
	}

	// M-step with a small floor to keep every probability positive.
	const floor = 1e-6
	total := initAcc.Sum()
	if total > 0 {
		for i := range m.initial {
			m.initial[i] = (initAcc[i] + floor) / (total + floor*float64(m.states))
		}
	}
	for i := 0; i < m.states; i++ {
		if stateTransAcc[i] > 0 {
			row := m.trans.Row(i)
			acc := transAcc.Row(i)
			denom := stateTransAcc[i] + floor*float64(m.states)
			for j := range row {
				row[j] = (acc[j] + floor) / denom
			}
		}
		if stateAcc[i] > 0 {
			row := m.emit.Row(i)
			acc := emitAcc.Row(i)
			denom := stateAcc[i] + floor*float64(m.vocab)
			for j := range row {
				row[j] = (acc[j] + floor) / denom
			}
		}
	}
}

// BackendHMM is the scorer-registry tag of the hidden Markov model.
const BackendHMM = "hmm"

// HMM is a scorer.Scorer, so it can serve as a first-class online
// detector backend in internal/core.
var _ scorer.Scorer = (*HMM)(nil)

// Backend returns the scorer-registry tag of this model family.
func (m *HMM) Backend() string { return BackendHMM }

// VocabSize returns the emission-vocabulary size.
func (m *HMM) VocabSize() int { return m.vocab }

// NewStream returns an incremental scorer carrying the forward-algorithm
// step state: the normalized filtering distribution over hidden states.
// The states-sized buffers are preallocated and the vocab-sized
// predictive distribution is built by the first Observe, so
// steady-state streaming performs no per-action allocations and a
// likelihood-only stream never holds the distribution.
func (m *HMM) NewStream() scorer.Stream {
	return &hmmStream{
		m:     m,
		alpha: tensor.NewVector(m.states),
		pred:  tensor.NewVector(m.states),
	}
}

// hmmStream is the online adapter over HMM: one scaled-forward recursion
// step per action. The likelihood it reports for action t is the forward
// scale factor p(o_t | o_1..t-1), so the product over a session equals
// the batch forward algorithm's likelihood.
type hmmStream struct {
	m *HMM
	// alpha is the filtering distribution p(state | observed so far).
	alpha tensor.Vector
	// pred is the one-step state prediction scratch buffer.
	pred tensor.Vector
	// dist is the predictive observation distribution, allocated by the
	// first Observe and reused by every later one (ObserveLikelihood
	// skips it).
	dist tensor.Vector
	// started flags that the first action has initialized alpha.
	started bool
}

// Observe consumes the next action and returns p(action | history) (-1
// for the first action, mirroring the other backends) plus the
// predictive distribution over the following action. The distribution is
// a scratch buffer valid until the next Observe.
func (s *hmmStream) Observe(action int) (float64, tensor.Vector, error) {
	lik, err := s.ObserveLikelihood(action)
	if err != nil {
		return 0, nil, err
	}
	// Predictive distribution over the next observation:
	// p(o) = sum_j [sum_i alpha_i trans(i,j)] emit(j, o).
	m := s.m
	if s.dist == nil {
		s.dist = tensor.NewVector(m.vocab)
	}
	for i := range s.dist {
		s.dist[i] = 0
	}
	for j := 0; j < m.states; j++ {
		var p float64
		for i := 0; i < m.states; i++ {
			p += s.alpha[i] * m.trans.At(i, j)
		}
		if p == 0 {
			continue
		}
		emitRow := m.emit.Row(j)
		for o := range s.dist {
			s.dist[o] += p * emitRow[o]
		}
	}
	return lik, s.dist, nil
}

// ObserveLikelihood is the scorer.LikelihoodStream fast path: one
// forward-algorithm step, O(states^2), without the O(states x vocab)
// predictive distribution nobody reads on the serving path.
func (s *hmmStream) ObserveLikelihood(action int) (float64, error) {
	m := s.m
	if action < 0 || action >= m.vocab {
		return 0, fmt.Errorf("baseline: hmm stream action %d outside vocab %d", action, m.vocab)
	}
	lik := -1.0
	if !s.started {
		for i := 0; i < m.states; i++ {
			s.alpha[i] = m.initial[i] * m.emit.At(i, action)
		}
		normalizeInPlace(s.alpha)
		s.started = true
	} else {
		// One forward step: predict the state, fold in the emission; the
		// normalizer is exactly the conditional observation probability.
		for j := 0; j < m.states; j++ {
			var p float64
			for i := 0; i < m.states; i++ {
				p += s.alpha[i] * m.trans.At(i, j)
			}
			s.pred[j] = p * m.emit.At(j, action)
		}
		copy(s.alpha, s.pred)
		lik = normalizeInPlace(s.alpha)
	}
	return lik, nil
}

// normalizeInPlace scales v to sum 1 and returns the pre-normalization
// sum (floored away from zero, matching the batch forward scaling).
func normalizeInPlace(v tensor.Vector) float64 {
	c := v.Sum()
	if c == 0 {
		c = 1e-300
	}
	v.Scale(1 / c)
	return c
}

// LogLikelihood returns the total log-probability of the session.
func (m *HMM) LogLikelihood(session []int) (float64, error) {
	if len(session) == 0 {
		return 0, fmt.Errorf("baseline: empty session")
	}
	for i, a := range session {
		if a < 0 || a >= m.vocab {
			return 0, fmt.Errorf("baseline: position %d action %d outside vocab", i, a)
		}
	}
	_, _, ll := m.forwardScaled(session)
	return ll, nil
}

// AvgLogLikelihood returns the per-action log-probability, the HMM's
// analogue of the language models' negative average loss.
func (m *HMM) AvgLogLikelihood(session []int) (float64, error) {
	ll, err := m.LogLikelihood(session)
	if err != nil {
		return 0, err
	}
	return ll / float64(len(session)), nil
}

// States returns the hidden state count.
func (m *HMM) States() int { return m.states }
