package nn

import (
	"fmt"
	"math/rand"

	"misusedetect/internal/tensor"
)

// Dense is a fully connected layer y = Wx + b, used as the softmax output
// projection of the language models.
type Dense struct {
	InputSize  int
	OutputSize int
	W          *Param // OutputSize x InputSize
	B          *Param // 1 x OutputSize
}

// NewDense allocates and Xavier-initializes a dense layer.
func NewDense(inputSize, outputSize int, rng *rand.Rand) (*Dense, error) {
	if inputSize < 1 || outputSize < 1 {
		return nil, fmt.Errorf("nn: invalid dense shape in=%d out=%d", inputSize, outputSize)
	}
	d := newDense(inputSize, outputSize, NewParam)
	tensor.XavierInit(d.W.W, inputSize, outputSize, rng)
	return d, nil
}

// newDense lays out the layer's parameters, each made by param, as
// newLSTM does.
func newDense(inputSize, outputSize int, param func(name string, rows, cols int) *Param) *Dense {
	return &Dense{
		InputSize:  inputSize,
		OutputSize: outputSize,
		W:          param("dense.w", outputSize, inputSize),
		B:          param("dense.b", 1, outputSize),
	}
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes logits = W x + b.
func (d *Dense) Forward(x tensor.Vector) tensor.Vector {
	out := tensor.NewVector(d.OutputSize)
	copy(out, d.B.W.Data)
	d.W.W.MulVecAdd(out, x)
	return out
}
