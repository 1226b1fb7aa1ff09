// Package ocsvm implements the one-class support vector machine of
// Schölkopf et al. ("Support vector method for novelty detection", NIPS
// 2000) with an RBF kernel, trained by an SMO-style pairwise coordinate
// descent on the dual. The paper trains one OC-SVM per behavior cluster
// and routes new sessions to the cluster whose OC-SVM yields the maximal
// score; the decision scores are also what the paper's Figure 6 plots
// action by action.
package ocsvm

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"misusedetect/internal/tensor"
)

// Config holds the training hyperparameters.
type Config struct {
	// Nu in (0,1] bounds the fraction of training outliers (and lower
	// bounds the fraction of support vectors).
	Nu float64
	// Gamma is the RBF kernel width; 0 selects 1/numFeatures
	// (the common "auto" heuristic).
	Gamma float64
	// Tolerance is the KKT violation threshold for convergence.
	Tolerance float64
	// MaxIterations bounds the SMO pair updates.
	MaxIterations int
	// MaxSamples caps the training set by uniform subsampling (0 =
	// unlimited); the kernel matrix is dense, so this bounds memory.
	MaxSamples int
	// Seed drives the subsampling.
	Seed int64
}

// DefaultConfig mirrors common library defaults: nu=0.1, auto gamma.
func DefaultConfig(seed int64) Config {
	return Config{
		Nu:            0.1,
		Gamma:         0,
		Tolerance:     1e-4,
		MaxIterations: 100000,
		MaxSamples:    2000,
		Seed:          seed,
	}
}

func (c *Config) validate() error {
	if c.Nu <= 0 || c.Nu > 1 {
		return fmt.Errorf("ocsvm: Nu %v outside (0,1]", c.Nu)
	}
	if c.Gamma < 0 {
		return fmt.Errorf("ocsvm: negative Gamma %v", c.Gamma)
	}
	if c.Tolerance <= 0 {
		return fmt.Errorf("ocsvm: Tolerance must be positive, got %v", c.Tolerance)
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("ocsvm: MaxIterations must be >= 1, got %d", c.MaxIterations)
	}
	return nil
}

// Model is a trained one-class SVM.
type Model struct {
	gamma   float64
	rho     float64
	alphas  []float64
	support [][]float64 // support vectors (alpha > 0 only)
	svNorm  []float64   // precomputed ||sv||^2 for the sparse score path
	dim     int
}

// finalize precomputes the support-vector norms ScoreSparse expands the
// kernel with; both constructors (Train and Load) call it.
func (m *Model) finalize() {
	m.svNorm = make([]float64, len(m.support))
	for j, sv := range m.support {
		var n float64
		for _, v := range sv {
			n += v * v
		}
		m.svNorm[j] = n
	}
}

// Train fits the OC-SVM on the feature vectors xs (all the same length).
func Train(xs [][]float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("ocsvm: empty training set")
	}
	dim := len(xs[0])
	if dim == 0 {
		return nil, fmt.Errorf("ocsvm: zero-dimensional features")
	}
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("ocsvm: sample %d has %d features, want %d", i, len(x), dim)
		}
	}
	if cfg.MaxSamples > 0 && len(xs) > cfg.MaxSamples {
		rng := rand.New(rand.NewSource(cfg.Seed))
		idx := rng.Perm(len(xs))[:cfg.MaxSamples]
		sub := make([][]float64, cfg.MaxSamples)
		for i, j := range idx {
			sub[i] = xs[j]
		}
		xs = sub
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1 / float64(dim)
	}

	// Box bound of the nu-SVM dual: 0 <= alpha_i <= 1/(nu*l) with
	// sum(alpha) = 1, which is always feasible because l*C = 1/nu >= 1.
	l := len(xs)
	c := 1 / (cfg.Nu * float64(l))

	// Dense kernel matrix.
	k := tensor.NewMatrix(l, l)
	for i := 0; i < l; i++ {
		k.Set(i, i, 1)
		for j := i + 1; j < l; j++ {
			v := rbf(xs[i], xs[j], gamma)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}

	// libsvm-style initialization: fill alphas to sum 1 under the box.
	alphas := make([]float64, l)
	remaining := 1.0
	for i := 0; i < l && remaining > 0; i++ {
		a := math.Min(c, remaining)
		alphas[i] = a
		remaining -= a
	}

	// Gradient of 1/2 a'Ka is g = Ka.
	g := make([]float64, l)
	for i := 0; i < l; i++ {
		var s float64
		for j := 0; j < l; j++ {
			if alphas[j] > 0 {
				s += alphas[j] * k.At(i, j)
			}
		}
		g[i] = s
	}

	// SMO: move mass from the highest-gradient loaded alpha to the
	// lowest-gradient unsaturated alpha.
	for it := 0; it < cfg.MaxIterations; it++ {
		up, down := -1, -1
		upG, downG := math.Inf(1), math.Inf(-1)
		for i := 0; i < l; i++ {
			if alphas[i] < c && g[i] < upG {
				up, upG = i, g[i]
			}
			if alphas[i] > 0 && g[i] > downG {
				down, downG = i, g[i]
			}
		}
		if up < 0 || down < 0 || downG-upG < cfg.Tolerance {
			break
		}
		denom := k.At(up, up) + k.At(down, down) - 2*k.At(up, down)
		if denom <= 1e-12 {
			denom = 1e-12
		}
		delta := (downG - upG) / denom
		delta = math.Min(delta, c-alphas[up])
		delta = math.Min(delta, alphas[down])
		if delta <= 0 {
			break
		}
		alphas[up] += delta
		alphas[down] -= delta
		for i := 0; i < l; i++ {
			g[i] += delta * (k.At(i, up) - k.At(i, down))
		}
	}

	// rho = average w.phi(x) over free support vectors; fall back to all
	// support vectors when none are strictly inside the box.
	var rho float64
	free := 0
	for i := 0; i < l; i++ {
		if alphas[i] > 1e-12 && alphas[i] < c-1e-12 {
			rho += g[i]
			free++
		}
	}
	if free > 0 {
		rho /= float64(free)
	} else {
		sv := 0
		for i := 0; i < l; i++ {
			if alphas[i] > 1e-12 {
				rho += g[i]
				sv++
			}
		}
		if sv > 0 {
			rho /= float64(sv)
		}
	}

	m := &Model{gamma: gamma, rho: rho, dim: dim}
	for i := 0; i < l; i++ {
		if alphas[i] > 1e-12 {
			m.alphas = append(m.alphas, alphas[i])
			m.support = append(m.support, append([]float64(nil), xs[i]...))
		}
	}
	m.finalize()
	return m, nil
}

// Score returns the decision value f(x) = sum_i alpha_i K(sv_i, x) - rho.
// Positive values are inliers, negative outliers; larger is more normal.
func (m *Model) Score(x []float64) (float64, error) {
	if len(x) != m.dim {
		return 0, fmt.Errorf("ocsvm: sample has %d features, want %d", len(x), m.dim)
	}
	var s float64
	for i, sv := range m.support {
		s += m.alphas[i] * rbf(sv, x, m.gamma)
	}
	return s - m.rho, nil
}

// ScoreSparse is Score for a feature vector of known support: only the
// coordinates listed in nonzero are read (every other coordinate of x
// must be zero). Expanding ||sv-x||^2 = ||sv||^2 - 2<sv,x> + ||x||^2
// against the precomputed support-vector norms shrinks the
// per-support-vector work from the full feature dimension to the number
// of distinct actions seen. Equal to Score up to floating-point
// summation order, and bit-identical on count features. The per-action
// figures, the tests and the bench's replica of the vote score prefixes
// with it; the serving vote runs on Router, which returns the same bits.
func (m *Model) ScoreSparse(x []float64, nonzero []int) (float64, error) {
	if len(x) != m.dim {
		return 0, fmt.Errorf("ocsvm: sample has %d features, want %d", len(x), m.dim)
	}
	var xnorm float64
	for _, i := range nonzero {
		xnorm += x[i] * x[i]
	}
	var s float64
	for j, sv := range m.support {
		var dot float64
		for _, i := range nonzero {
			dot += sv[i] * x[i]
		}
		s += m.alphas[j] * math.Exp(-m.gamma*(m.svNorm[j]-2*dot+xnorm))
	}
	return s - m.rho, nil
}

// SupportVectorCount returns the number of support vectors.
func (m *Model) SupportVectorCount() int { return len(m.support) }

// Dim returns the expected feature dimension.
func (m *Model) Dim() int { return m.dim }

func rbf(a, b []float64, gamma float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-gamma * d)
}

// serializedModel is the gob wire form.
type serializedModel struct {
	Gamma   float64
	Rho     float64
	Alphas  []float64
	Support [][]float64
	Dim     int
}

// Save writes the model with gob.
func (m *Model) Save(w io.Writer) error {
	s := serializedModel{Gamma: m.gamma, Rho: m.rho, Alphas: m.alphas, Support: m.support, Dim: m.dim}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("ocsvm: save: %w", err)
	}
	return nil
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var s serializedModel
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("ocsvm: load: %w", err)
	}
	if s.Dim < 1 || len(s.Alphas) != len(s.Support) {
		return nil, fmt.Errorf("ocsvm: load: malformed model")
	}
	m := &Model{gamma: s.Gamma, rho: s.Rho, alphas: s.Alphas, support: s.Support, dim: s.Dim}
	m.finalize()
	return m, nil
}
