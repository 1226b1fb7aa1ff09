package nn

import (
	"fmt"
	"math"
	"math/rand"

	"misusedetect/internal/tensor"
)

// LSTM is a single Long Short-Term Memory layer over one-hot inputs. The
// input at each step is an action index; because inputs are one-hot, the
// input projection is a column gather instead of a full matrix-vector
// product, which is what makes pure-Go training tractable at ~300 actions.
//
// Gate layout along the 4H dimension is [input; forget; output; candidate].
type LSTM struct {
	InputSize  int
	HiddenSize int
	// Wx is the 4H x InputSize input projection.
	Wx *Param
	// Wh is the 4H x H recurrent projection. StepBatch reads it packed
	// (Param.packed), once per write.
	Wh *Param
	// B is the 1 x 4H bias; the forget-gate slice is initialized to 1,
	// the standard trick to preserve memory early in training.
	B *Param
}

// NewLSTM allocates and initializes an LSTM layer.
func NewLSTM(inputSize, hiddenSize int, rng *rand.Rand) (*LSTM, error) {
	if inputSize < 1 || hiddenSize < 1 {
		return nil, fmt.Errorf("nn: invalid LSTM shape in=%d hidden=%d", inputSize, hiddenSize)
	}
	l := newLSTM(inputSize, hiddenSize, NewParam)
	tensor.XavierInit(l.Wx.W, inputSize, hiddenSize, rng)
	tensor.OrthogonalScaledInit(l.Wh.W, rng)
	for h := hiddenSize; h < 2*hiddenSize; h++ { // forget gate bias = 1
		l.B.W.Data[h] = 1
	}
	return l, nil
}

// newLSTM lays out the layer's parameters, each made by param: NewParam
// for a layer to initialize, shapeParam for one to load.
func newLSTM(inputSize, hiddenSize int, param func(name string, rows, cols int) *Param) *LSTM {
	return &LSTM{
		InputSize:  inputSize,
		HiddenSize: hiddenSize,
		Wx:         param("lstm.wx", 4*hiddenSize, inputSize),
		Wh:         param("lstm.wh", 4*hiddenSize, hiddenSize),
		B:          param("lstm.b", 1, 4*hiddenSize),
	}
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// State is the recurrent state (h, c) carried across steps.
type State struct {
	H tensor.Vector
	C tensor.Vector
}

// NewState returns a zero state.
func (l *LSTM) NewState() *State {
	return &State{H: tensor.NewVector(l.HiddenSize), C: tensor.NewVector(l.HiddenSize)}
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	return &State{H: s.H.Clone(), C: s.C.Clone()}
}

// preactivate computes the gate pre-activations z = b + Wx[:, x] + Wh*h
// (x < 0 encodes a zero/padded input, skipping the one-hot column). Step
// and the per-row pre-activation of StepBatch must accumulate in exactly
// this order so the batched serving step stays bit-identical to Step.
func (l *LSTM) preactivate(z tensor.Vector, x int, h tensor.Vector) {
	copy(z, l.B.W.Data)
	if x >= 0 {
		// One-hot input: add column x of Wx.
		for r := 0; r < 4*l.HiddenSize; r++ {
			z[r] += l.Wx.W.Data[r*l.InputSize+x]
		}
	}
	l.Wh.W.MulVecAdd(z, h)
}

// Step advances the state by one input index (x < 0 encodes a zero/padded
// input) and returns the new hidden vector. It is the scalar reference
// that StepBatch and the lockstep trainer's forward are held to bit for
// bit.
func (l *LSTM) Step(st *State, x int) tensor.Vector {
	hs := l.HiddenSize
	z := tensor.NewVector(4 * hs)
	l.preactivate(z, x, st.H)

	i := tensor.NewVector(hs)
	f := tensor.NewVector(hs)
	o := tensor.NewVector(hs)
	g := tensor.NewVector(hs)
	for k := 0; k < hs; k++ {
		i[k] = sigmoid(z[k])
		f[k] = sigmoid(z[hs+k])
		o[k] = sigmoid(z[2*hs+k])
		g[k] = math.Tanh(z[3*hs+k])
	}
	c := tensor.NewVector(hs)
	tanhC := tensor.NewVector(hs)
	h := tensor.NewVector(hs)
	for k := 0; k < hs; k++ {
		c[k] = f[k]*st.C[k] + i[k]*g[k]
		tanhC[k] = math.Tanh(c[k])
		h[k] = o[k] * tanhC[k]
	}
	st.H = h
	st.C = c
	return h
}
