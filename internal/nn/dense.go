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
	d := &Dense{
		InputSize:  inputSize,
		OutputSize: outputSize,
		W:          NewParam("dense.w", outputSize, inputSize),
		B:          NewParam("dense.b", 1, outputSize),
	}
	tensor.XavierInit(d.W.W, inputSize, outputSize, rng)
	return d, nil
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
