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
// logits are dot + bias where Dense.ForwardInto has bias + dot (one
// commutative add), and the elementwise math is the same expressions per
// element. That equivalence is what lets the engine's
// deterministic-replay mode batch freely.

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
// bit-identical to what StepReuse would have produced on it.
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
		for k := 0; k < hs; k++ {
			ig := sigmoid(z[k])
			fg := sigmoid(z[hs+k])
			og := sigmoid(z[2*hs+k])
			gg := math.Tanh(z[3*hs+k])
			c := fg*st.C[k] + ig*gg
			st.C[k] = c
			st.H[k] = og * math.Tanh(c)
		}
	}
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
