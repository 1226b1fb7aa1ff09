// Package nn is a from-scratch neural-network stack sufficient for the
// paper's behavior models: an LSTM recurrent layer, a dense softmax output
// layer, inverted dropout, softmax cross-entropy loss, the Adam optimizer
// with global-norm gradient clipping, and gob serialization. It follows
// the paper's architecture exactly — one LSTM layer, a dropout layer, and
// a dense layer with softmax activation — with the paper's
// hyperparameters (256 units, dropout 0.4, minibatch 32, learning rate
// 0.001) available as defaults.
//
// Everything is float64 and CPU-bound, and every weight product runs on
// one kernel, tensor.MatMulWS, against a packed operand. Training runs
// each minibatch in lockstep (trainbatch.go): the examples advance one
// time step at a time, so every product is a GEMM over many rows, on
// weights the trainer packs once per minibatch into its own storage.
// Serving's batched step (batch.go) runs the same gate math against the
// recurrent and dense weights packed once per write. Both are
// bit-identical to the scalar per-step reference: LSTM.Step and
// ForwardAll for inference, and for training the per-example scalar
// path the tests keep as an oracle. Finite-difference gradient checks
// establish that the gradients are right.
//
// A served network holds each weight once: gradient buffers exist only
// while Trainer.Fit runs, and LoadLanguageNetwork adopts the decoded
// weights rather than copying them over a fresh initialization. Beside
// them it keeps the two packed copies serving reads.
//
// The LanguageNetwork is the LSTM backend of the detection pipeline: it
// implements scorer.Scorer and scorer.BatchStream itself (model.go),
// and Train fits one on a behavior cluster's sessions.
package nn

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"misusedetect/internal/tensor"
)

// Param is one trainable weight matrix (vectors are 1 x n matrices),
// with a gradient accumulator while it trains.
type Param struct {
	// Name identifies the parameter in serialized models and debugging.
	Name string
	// W is the weight storage.
	W *tensor.Matrix
	// G accumulates dLoss/dW between optimizer steps. It is nil outside
	// training: Trainer.Fit allocates it zeroed when it starts and drops
	// it when it returns, so a served network holds W alone.
	G *tensor.Matrix
	// gen counts the writes to W since construction: every writer of a
	// built network's W (Adam.Step, setParams) bumps it, so a copy
	// derived from W, such as the packed copy serving reads, knows when
	// it is stale.
	gen uint64
	// pack is W packed for tensor.MatMulWS; see packed. packMu makes
	// the packing single-flight.
	pack   atomic.Pointer[packedParam]
	packMu sync.Mutex
}

// packedParam is a Param's W packed for tensor.MatMulWS, with the write
// generation of W it was packed from.
type packedParam struct {
	gen uint64
	w   *tensor.PackedNT
}

// NewParam allocates a zeroed parameter of the given shape, with no
// gradient buffer.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.NewMatrix(rows, cols)}
}

// shapeParam is a parameter of the given shape whose W holds no data
// yet: LoadLanguageNetwork builds its layers from these and setParams
// then adopts the decoded weights as their data.
func shapeParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: &tensor.Matrix{Rows: rows, Cols: cols}}
}

// packed returns W packed for tensor.MatMulWS, packing it on first use
// and again after every write to W (gen), so the packed copy is never
// stale and serving never packs per call. Only the weights serving
// multiplies (the recurrent and the dense W) are ever packed. The copy
// is published through an atomic pointer because several shards
// observe one network at once. Shards that find it stale together pack
// it once: the first packs under packMu and the others wait for its
// copy, so how much packing a run does and how much memory it leaves
// behind do not depend on how the shards' first calls interleave.
func (p *Param) packed() *tensor.PackedNT {
	if c := p.pack.Load(); c != nil && c.gen == p.gen {
		return c.w
	}
	p.packMu.Lock()
	defer p.packMu.Unlock()
	if c := p.pack.Load(); c != nil && c.gen == p.gen {
		return c.w
	}
	c := &packedParam{gen: p.gen, w: tensor.PackNT(p.W)}
	p.pack.Store(c)
	return c.w
}

// allocGrads gives every parameter a zeroed gradient buffer.
func allocGrads(params []*Param) {
	for _, p := range params {
		p.G = tensor.NewMatrix(p.W.Rows, p.W.Cols)
	}
}

// dropGrads releases every parameter's gradient buffer.
func dropGrads(params []*Param) {
	for _, p := range params {
		p.G = nil
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// GradNorm returns the global L2 norm of the gradients of params.
func GradNorm(params []*Param) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.G.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients so their global norm is at most
// maxNorm; it returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range params {
			p.G.Scale(scale)
		}
	}
	return norm
}

// Adam implements the Adam optimizer (Kingma & Ba) over a parameter set.
type Adam struct {
	// LearningRate is the step size (0.001 in the paper).
	LearningRate float64
	// Beta1, Beta2 are the moment decay rates.
	Beta1, Beta2 float64
	// Epsilon stabilizes the denominator.
	Epsilon float64

	step int
	m    map[*Param]*tensor.Matrix
	v    map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with standard moment settings.
func NewAdam(lr float64) (*Adam, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: learning rate must be positive, got %v", lr)
	}
	return &Adam{
		LearningRate: lr,
		Beta1:        0.9,
		Beta2:        0.999,
		Epsilon:      1e-8,
		m:            make(map[*Param]*tensor.Matrix),
		v:            make(map[*Param]*tensor.Matrix),
	}, nil
}

// Step applies one Adam update to every parameter using its accumulated
// gradient, then zeroes the gradients.
func (a *Adam) Step(params []*Param) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.NewMatrix(p.W.Rows, p.W.Cols)
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.NewMatrix(p.W.Rows, p.W.Cols)
			a.v[p] = v
		}
		for i, g := range p.G.Data {
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mHat := m.Data[i] / c1
			vHat := v.Data[i] / c2
			p.W.Data[i] -= a.LearningRate * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
		p.gen++
		p.ZeroGrad()
	}
}

// sigmoid is the logistic function.
func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
