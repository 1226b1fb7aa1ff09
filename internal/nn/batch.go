package nn

import (
	"fmt"
	"math"

	"misusedetect/internal/tensor"
)

// Cross-session micro-batched inference: a shard that holds N live LSTM
// streams advances all of them with one output GEMM and one recurrent
// GEMM per tick instead of 2N matvecs, so the weight matrices are
// streamed from memory once per tick rather than once per event.
//
// The batched path is bit-identical to the reference kernels: the GEMM
// kernels accumulate each output element in a single scalar over
// ascending k (tensor.MatMulNT's contract), the gate pre-activation is
// assembled in the same (bias + wx) + dot order as LSTM.preactivate, the
// logits are dot + bias where Dense.Forward has bias + dot (one
// commutative add), and the elementwise math is the same expressions per
// element. Only where the exps are taken moves: each stream's row
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
	// z holds the 4H gate pre-activations, one row per stream.
	z *tensor.Matrix
	// logits holds the dense outputs, one row per primed stream.
	logits *tensor.Matrix
	// e holds one stream's 4H exp arguments, then their exps.
	e []float64
	// pack is the GEMM kernel's packing buffer (16·(H+3) values).
	pack []float64
	// states is the *State gather buffer used by ObserveBatch.
	states []*State
}

// NewBatchScratch returns an empty scratch; buffers are allocated on
// first use and grown on demand.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// StepBatch advances N independent states by one input each (xs[i] < 0
// encodes a zero/padded input), running the four gate transforms of all
// streams as a single GEMM. The states must be distinct. Each state ends
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
	s.z = tensor.GrowMatrix(s.z, n, 4*hs)
	tensor.MatMulNTBuf(s.z, s.h, l.Wh.W, &s.pack)
	bias := l.B.W.Data
	if cap(s.e) < 4*hs {
		s.e = make([]float64, 4*hs)
	}
	e := s.e[:4*hs]
	for i, st := range states {
		z := s.z.Row(i)
		// Fold in bias and the one-hot input column in the serial order:
		// z = (bias + wx) + dot.
		switch x := xs[i]; {
		case x < 0:
			for r, d := range z {
				z[r] = bias[r] + d
			}
		default:
			for r, d := range z {
				z[r] = (bias[r] + l.Wx.W.Data[r*l.InputSize+x]) + d
			}
		}
		// One exp per gate: the sigmoid's argument for the three
		// sigmoid gates, the tanh's for the candidate.
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
			c := fg*st.C[k] + ig*gg
			st.C[k] = c
			e[k] = tanhExpArg(c)
		}
		tc := e[:hs]
		tensor.ExpInto(tc, tc)
		for k := 0; k < hs; k++ {
			og := sigmoidFromExp(z[2*hs+k], e[2*hs+k])
			st.H[k] = og * tanhFromExp(st.C[k], tc[k])
		}
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

// ObserveBatch advances N distinct streams of this network by one action
// each, writing into liks[i] the probability stream i's model assigned
// to actions[i] before consuming it (-1 for a stream's first action).
// The likelihood is read from softmax(dense(H)) of the pre-step hidden
// state — one output GEMM over the primed streams' packed H rows — and
// then one recurrent GEMM steps every stream; no distribution is kept.
// A batch of one is the serial path (StreamState.ObserveLikelihood).
// Transient buffers come from the network's scratch pool, so several
// goroutines may observe disjoint streams of one network at once.
func (n *LanguageNetwork) ObserveBatch(streams []*StreamState, actions []int, liks []float64) error {
	if len(streams) != len(actions) || len(streams) != len(liks) {
		return fmt.Errorf("nn: ObserveBatch length mismatch streams=%d actions=%d liks=%d",
			len(streams), len(actions), len(liks))
	}
	primed := 0
	for i, st := range streams {
		if st.net != n {
			return fmt.Errorf("nn: ObserveBatch stream %d belongs to a different network", i)
		}
		if a := actions[i]; a < 0 || a >= n.cfg.InputSize {
			return fmt.Errorf("nn: stream action %d outside vocab %d", a, n.cfg.InputSize)
		}
		if st.primed {
			primed++
		}
	}
	s := n.scratch.Get().(*BatchScratch)
	defer n.scratch.Put(s)
	if primed > 0 {
		s.h = tensor.GrowMatrix(s.h, primed, n.cfg.HiddenSize)
		r := 0
		for _, st := range streams {
			if st.primed {
				copy(s.h.Row(r), st.state.H)
				r++
			}
		}
		s.logits = tensor.GrowMatrix(s.logits, primed, n.cfg.InputSize)
		tensor.MatMulNTBuf(s.logits, s.h, n.dense.W.W, &s.pack)
		tensor.AddBiasRows(s.logits, tensor.Vector(n.dense.B.W.Data))
	}
	s.states = s.states[:0]
	r := 0
	for i, st := range streams {
		liks[i] = -1
		if st.primed {
			probs := s.logits.Row(r)
			tensor.Softmax(probs, probs)
			liks[i] = probs[actions[i]]
			r++
		}
		st.primed = true
		s.states = append(s.states, &st.state)
	}
	n.lstm.StepBatch(s.states, actions, s)
	return nil
}
