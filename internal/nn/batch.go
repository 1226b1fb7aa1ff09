package nn

import (
	"fmt"
	"math"

	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

// Cross-session micro-batched inference: a shard that holds N live LSTM
// streams advances all of them with one output product and one
// recurrent product per tick instead of 2N matvecs, so the weight
// matrices are streamed from memory once per tick rather than once per
// event. Both products are weight-stationary: the dense W and the
// recurrent Wh are each packed once per write to them (Param.packed),
// with the AVX2 lanes over the weights' rows (the vocabulary, the 4H
// gates), so a tick of one or two streams uses whole vectors too and no
// call packs anything. Serving reads one probability per stream, so
// the output layer stops at the likelihood (tensor.SoftmaxAt): no
// distribution is normalized.
//
// The batched path is bit-identical to the reference kernels: the GEMM
// kernel accumulates each output element in a single scalar over
// ascending k (tensor.MatMulWS's contract, the serial matvec's chain),
// the gate pre-activation is assembled in the same (bias + wx) + dot order
// as LSTM.preactivate, the logits are dot + bias where Dense.Forward has
// bias + dot (one commutative add), the likelihood is Softmax's max,
// shift, exp and ascending sum followed by its scale of the one wanted
// entry, and the elementwise math is the same expressions per element.
// Only where the exps are taken moves: each stream's row
// collects the argument every sigmoid and tanh would pass to math.Exp,
// takes them all in one tensor.ExpInto (math.Exp bit for bit, four lanes
// at a time where the CPU allows), and finishes each function from its
// exp with a copy of the scalar function's own branches; the cell tanh
// gets a second ExpInto. Step and ForwardAll keep the scalar sigmoid
// and math.Tanh and are the oracles. That equivalence is what lets the
// engine's deterministic-replay mode batch freely.

// BatchScratch holds the packed matrices of a batched step. It grows to
// the largest batch it has served and is reused across ticks; one
// scratch must not be shared between goroutines.
type BatchScratch struct {
	// h packs one stream's hidden vector per row: the primed streams'
	// H for the output GEMM, then every stream's H for the recurrent one.
	h *tensor.Matrix
	// z holds the 4H gate pre-activations, one row per stream, padded
	// to the packed Wh's stride.
	z *tensor.Matrix
	// logits holds the dense outputs, one row per primed stream, padded
	// to the packed weights' stride; at and liks hold those streams'
	// actions and likelihoods.
	logits *tensor.Matrix
	at     []int
	liks   []float64
	// e holds one stream's 4H exp arguments, then their exps.
	e []float64
	// states is the *State gather buffer used by AdvanceBatch.
	states []*State
}

// NewBatchScratch returns an empty scratch; buffers are allocated on
// first use and grown on demand.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// StepBatch advances N independent states by one input each (xs[i] < 0
// encodes a zero/padded input), running the four gate transforms of all
// streams as a single weight-stationary product against Wh packed once
// per write to it. The states must be distinct. Each state ends
// bit-identical to what Step would have produced on it.
func (l *LSTM) StepBatch(states []*State, xs []int, s *BatchScratch) {
	if len(states) != len(xs) {
		panic(fmt.Sprintf("nn: StepBatch %d states but %d inputs", len(states), len(xs)))
	}
	n := len(states)
	if n == 0 {
		return
	}
	hs := l.HiddenSize
	s.h = tensor.GrowMatrix(s.h, n, hs)
	for i, st := range states {
		copy(s.h.Row(i), st.H)
	}
	wh := l.Wh.packed()
	s.z = tensor.GrowMatrix(s.z, n, wh.Stride())
	tensor.MatMulWS(s.z, s.h, wh)
	if cap(s.e) < 4*hs {
		s.e = make([]float64, 4*hs)
	}
	e := s.e[:4*hs]
	for i, st := range states {
		l.stepRow(s.z.Row(i)[:4*hs], e, xs[i], st.C, st.C, e[:hs], st.H)
	}
}

// stepRow finishes one row of a batched step. On entry z holds the
// row's recurrent product Wh·h; stepRow folds in the bias and the input
// column of x (x < 0 is a zero input) in the serial order, z = (bias +
// wx) + dot, and takes the gates. It leaves the activations [i; f; o; g]
// in z, the new cell state in c (cPrev holds the old one and may alias
// c), tanh c in tc (which may alias e[:H]) and the new hidden state in
// h. e is 4H of scratch. StepBatch and the lockstep trainer's forward
// share it, so both produce Step's bits.
func (l *LSTM) stepRow(z, e []float64, x int, cPrev, c, tc, h []float64) {
	hs := l.HiddenSize
	bias := l.B.W.Data
	switch {
	case x < 0:
		for r, d := range z {
			z[r] = bias[r] + d
		}
	default:
		for r, d := range z {
			z[r] = (bias[r] + l.Wx.W.Data[r*l.InputSize+x]) + d
		}
	}
	// One exp per gate: the sigmoid's argument for the three sigmoid
	// gates, the tanh's for the candidate.
	for r, v := range z[:3*hs] {
		e[r] = sigmoidExpArg(v)
	}
	for r, v := range z[3*hs:] {
		e[3*hs+r] = tanhExpArg(v)
	}
	tensor.ExpInto(e, e)
	for k := 0; k < hs; k++ {
		ig := sigmoidFromExp(z[k], e[k])
		fg := sigmoidFromExp(z[hs+k], e[hs+k])
		gg := tanhFromExp(z[3*hs+k], e[3*hs+k])
		z[k], z[hs+k], z[3*hs+k] = ig, fg, gg
		ck := fg*cPrev[k] + ig*gg
		c[k] = ck
		tc[k] = tanhExpArg(ck)
	}
	tensor.ExpInto(tc, tc)
	for k := 0; k < hs; k++ {
		og := sigmoidFromExp(z[2*hs+k], e[2*hs+k])
		tk := tanhFromExp(c[k], tc[k])
		z[2*hs+k], tc[k] = og, tk
		h[k] = og * tk
	}
}

// The elementwise math of StepBatch splits sigmoid and math.Tanh at
// their one call to math.Exp, so that a whole row's exps run as one
// tensor.ExpInto: xExpArg gives the argument the scalar function would
// pass to math.Exp (0 where it calls none), and xFromExp finishes from
// that exp. Each pair makes the scalar function's choices on the same
// conditions and evaluates the same expressions, so the composition
// returns the same bits.

// sigmoidExpArg is the argument sigmoid passes to math.Exp: -x when
// x >= 0, else x. The sign flip is done on the bits, which is what the
// compiler emits for -x, so the choice compiles to a conditional move
// rather than a branch on the sign of a gate.
func sigmoidExpArg(x float64) float64 {
	var flip uint64
	if x >= 0 {
		flip = 1 << 63
	}
	return math.Float64frombits(math.Float64bits(x) ^ flip)
}

// sigmoidFromExp is sigmoid(x) given e = math.Exp(sigmoidExpArg(x)):
// 1/(1+e) when x >= 0, else e/(1+e), with the numerator chosen on its
// bits (a conditional move, as in sigmoidExpArg).
func sigmoidFromExp(x, e float64) float64 {
	num, one := math.Float64bits(e), math.Float64bits(1)
	if x >= 0 {
		num = one
	}
	return math.Float64frombits(num) / (1 + e)
}

// tanhMaxLog is math.tanh's MAXLOG, log(2**127): past half of it the
// result is ±1.
const tanhMaxLog = 8.8029691931113054295988e+01

// tanhP and tanhQ are math.tanh's rational approximation on |x| < 0.625.
var tanhP = [...]float64{
	-9.64399179425052238628e-1,
	-9.92877231001918586564e1,
	-1.61468768441708447952e3,
}
var tanhQ = [...]float64{
	1.12811678491632931402e2,
	2.23548839060100448583e3,
	4.84406305325125486048e3,
}

// tanhExpArg is the argument math.Tanh passes to math.Exp, or 0 in the
// two regimes that need no exp.
func tanhExpArg(x float64) float64 {
	if z := math.Abs(x); z >= 0.625 && z <= 0.5*tanhMaxLog {
		return 2 * z
	}
	return 0
}

// tanhFromExp is math.Tanh(x) given e = math.Exp(tanhExpArg(x)): the
// pure-Go math.tanh that math.Tanh runs on every port but s390x.
func tanhFromExp(x, e float64) float64 {
	z := math.Abs(x)
	switch {
	case z > 0.5*tanhMaxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		z = 1 - 2/(e+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((tanhP[0]*s+tanhP[1])*s+tanhP[2])/(((s+tanhQ[0])*s+tanhQ[1])*s+tanhQ[2])
	}
	return z
}

// AdvanceBatch implements scorer.BatchStream: it advances N distinct
// streams of this network by one action each, writing into liks[i] the
// probability stream i's model assigned to actions[i] before consuming
// it (-1 for a stream's first action). Every stream must be a
// *StreamState of this network. The likelihood is
// Softmax(dense(H))[action] of the pre-step hidden state, bit for bit,
// read without building the distribution: one weight-stationary product
// of the dense weights (packed once per write to them, see Param.packed)
// against the primed streams' H rows, then tensor.SoftmaxAt's bias, max,
// exp and sum passes per row. Then one weight-stationary recurrent
// product steps every stream (StepBatch). A batch of one is the serial
// path (StreamState.ObserveLikelihood). Transient buffers come from the
// network's scratch pool, so several goroutines may observe disjoint
// streams of one network at once.
func (n *LanguageNetwork) AdvanceBatch(streams []scorer.Stream, actions []int, liks []float64) error {
	if len(streams) != len(actions) || len(streams) != len(liks) {
		return fmt.Errorf("nn: AdvanceBatch length mismatch streams=%d actions=%d liks=%d",
			len(streams), len(actions), len(liks))
	}
	primed := 0
	for i, st := range streams {
		ss, ok := st.(*StreamState)
		if !ok || ss.net != n {
			return fmt.Errorf("nn: AdvanceBatch stream %d (%T) is not a stream of this network", i, st)
		}
		if a := actions[i]; a < 0 || a >= n.cfg.InputSize {
			return fmt.Errorf("nn: stream action %d outside vocab %d", a, n.cfg.InputSize)
		}
		if ss.primed {
			primed++
		}
	}
	s := n.scratch.Get().(*BatchScratch)
	defer n.scratch.Put(s)
	if primed > 0 {
		w := n.dense.W.packed()
		s.h = tensor.GrowMatrix(s.h, primed, n.cfg.HiddenSize)
		s.at, s.liks = s.at[:0], s.liks[:0]
		for i, st := range streams {
			if st := st.(*StreamState); st.primed {
				copy(s.h.Row(len(s.at)), st.state.H)
				s.at = append(s.at, actions[i])
				s.liks = append(s.liks, 0)
			}
		}
		s.logits = tensor.GrowMatrix(s.logits, primed, w.Stride())
		tensor.MatMulWS(s.logits, s.h, w)
		tensor.SoftmaxAt(s.liks, s.logits, tensor.Vector(n.dense.B.W.Data), s.at)
	}
	s.states = s.states[:0]
	r := 0
	for i, st := range streams {
		st := st.(*StreamState)
		liks[i] = -1
		if st.primed {
			liks[i] = s.liks[r]
			r++
		}
		st.primed = true
		s.states = append(s.states, &st.state)
	}
	n.lstm.StepBatch(s.states, actions, s)
	return nil
}
