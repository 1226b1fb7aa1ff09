package nn

import (
	"fmt"
	"math"

	"misusedetect/internal/tensor"
)

// Cross-session micro-batched inference: a shard that holds N live LSTM
// streams advances all of them with one recurrent GEMM and one output
// GEMM per tick instead of 2N matvecs, so the weight matrices are
// streamed from memory once per tick rather than once per event.
//
// The batched path is bit-identical to N serial StepReuse/Observe calls:
// the GEMM kernels accumulate each output element in a single scalar
// over ascending k (tensor.MatMulNT's contract), the pre-activation is
// assembled in the same (bias + wx) + dot order as LSTM.preactivate,
// and the elementwise gate math is the same expressions per element.
// That equivalence is what lets the engine's deterministic-replay mode
// batch freely.

// BatchScratch holds the packed matrices of a batched step. It grows to
// the largest batch it has served and is reused across ticks; one
// scratch must not be shared between goroutines.
type BatchScratch struct {
	// h packs one stream's hidden vector per row: the previous h during
	// the recurrent GEMM, overwritten with the new h for the output GEMM.
	h *tensor.Matrix
	// z holds the 4H gate pre-activations, one row per stream.
	z *tensor.Matrix
	// logits holds the dense outputs, one row per stream.
	logits *tensor.Matrix
	// pack is the GEMM kernel's packing buffer (16·(H+3) values).
	pack []float64
	// states is the *State gather buffer used by ObserveBatch.
	states []*State
}

// NewBatchScratch returns an empty scratch; buffers are allocated on
// first use and grown on demand.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// BatchedState is the packed view of one batched step: row i of the
// hidden matrix belongs to States[i]. Valid after a StepBatch call on
// the scratch it came from (see BatchScratch.Batched) until the next.
type BatchedState struct {
	States []*State
	H      *tensor.Matrix
}

// Batched returns the packed view of the last StepBatch run through
// this scratch: H row i holds the post-step hidden vector of states[i].
func (s *BatchScratch) Batched(states []*State) BatchedState {
	return BatchedState{States: states, H: s.h}
}

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
	if l.WhQ != nil {
		tensor.MatMulNTQ(s.z, s.h, l.WhQ)
	} else {
		tensor.MatMulNTBuf(s.z, s.h, l.Wh.W, &s.pack)
	}
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
		case l.WxQ != nil:
			for r, d := range z {
				z[r] = (bias[r] + l.WxQ.At(r, x)) + d
			}
		default:
			for r, d := range z {
				z[r] = (bias[r] + l.Wx.W.Data[r*l.InputSize+x]) + d
			}
		}
		hrow := s.h.Row(i)
		for k := 0; k < hs; k++ {
			ig := sigmoid(z[k])
			fg := sigmoid(z[hs+k])
			og := sigmoid(z[2*hs+k])
			gg := math.Tanh(z[3*hs+k])
			c := fg*st.C[k] + ig*gg
			st.C[k] = c
			h := og * math.Tanh(c)
			st.H[k] = h
			hrow[k] = h
		}
	}
}

// ObserveBatch advances N distinct streams of this network by one action
// each, writing into liks[i] the probability stream i's model assigned
// to actions[i] before consuming it (-1 for a stream's first action) —
// the batched equivalent of calling Observe on every stream, and
// bit-identical to it. Streams may move freely between serial and
// batched observation across calls. The scratch carries all transient
// buffers, so one network can serve concurrent ObserveBatch calls as
// long as each caller brings its own scratch (and disjoint streams).
func (n *LanguageNetwork) ObserveBatch(streams []*StreamState, actions []int, liks []float64, s *BatchScratch) error {
	if len(streams) != len(actions) || len(streams) != len(liks) {
		return fmt.Errorf("nn: ObserveBatch length mismatch streams=%d actions=%d liks=%d",
			len(streams), len(actions), len(liks))
	}
	if len(streams) == 0 {
		return nil
	}
	s.states = s.states[:0]
	for i, st := range streams {
		if st.net != n {
			return fmt.Errorf("nn: ObserveBatch stream %d belongs to a different network", i)
		}
		a := actions[i]
		if a < 0 || a >= n.cfg.InputSize {
			return fmt.Errorf("nn: stream action %d outside vocab %d", a, n.cfg.InputSize)
		}
		liks[i] = -1
		if st.nextProbs != nil {
			liks[i] = st.nextProbs[a]
		}
		s.states = append(s.states, st.state)
	}
	n.lstm.StepBatch(s.states, actions, s)
	s.logits = tensor.GrowMatrix(s.logits, len(streams), n.cfg.InputSize)
	if n.dense.WQ != nil {
		tensor.MatMulNTQ(s.logits, s.h, n.dense.WQ)
	} else {
		tensor.MatMulNTBuf(s.logits, s.h, n.dense.W.W, &s.pack)
	}
	tensor.AddBiasRows(s.logits, tensor.Vector(n.dense.B.W.Data))
	for i, st := range streams {
		var probs tensor.Vector
		if st.scratch != nil {
			probs = st.scratch.probs
		} else {
			// Non-prealloc streams get a fresh distribution per step,
			// matching serial Observe.
			probs = tensor.NewVector(n.cfg.InputSize)
		}
		tensor.Softmax(probs, s.logits.Row(i))
		st.nextProbs = probs
	}
	return nil
}
