package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"misusedetect/internal/tensor"
)

// NetworkConfig describes the paper's model: one LSTM layer, a dropout
// layer, and a dense softmax output over the action set.
type NetworkConfig struct {
	// InputSize is the vocabulary size d (one-hot input dimension).
	InputSize int
	// HiddenSize is the LSTM unit count (256 in the paper).
	HiddenSize int
	// DropoutRate is the dropout applied between LSTM and dense layers
	// during training (0.4 in the paper).
	DropoutRate float64
	// Seed drives weight initialization and dropout masks.
	Seed int64
}

// PaperNetworkConfig returns the hyperparameters selected in the paper's
// preparatory evaluation: 256 LSTM units, dropout 0.4.
func PaperNetworkConfig(vocab int, seed int64) NetworkConfig {
	return NetworkConfig{InputSize: vocab, HiddenSize: 256, DropoutRate: 0.4, Seed: seed}
}

func (c *NetworkConfig) validate() error {
	if c.InputSize < 1 {
		return fmt.Errorf("nn: InputSize must be >= 1, got %d", c.InputSize)
	}
	if c.HiddenSize < 1 {
		return fmt.Errorf("nn: HiddenSize must be >= 1, got %d", c.HiddenSize)
	}
	if c.DropoutRate < 0 || c.DropoutRate >= 1 {
		return fmt.Errorf("nn: DropoutRate %v outside [0,1)", c.DropoutRate)
	}
	return nil
}

// LanguageNetwork is the next-action prediction network of the paper:
// one-hot action input -> LSTM -> dropout -> dense softmax over actions.
type LanguageNetwork struct {
	cfg   NetworkConfig
	lstm  *LSTM
	dense *Dense
	rng   *rand.Rand
	// scratch recycles ObserveBatch's packed matrices: one network is
	// served by several engine shards at once, so the transient buffers
	// cannot hang off the network itself.
	scratch sync.Pool
}

// NewLanguageNetwork builds and initializes the network.
func NewLanguageNetwork(cfg NetworkConfig) (*LanguageNetwork, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lstm, err := NewLSTM(cfg.InputSize, cfg.HiddenSize, rng)
	if err != nil {
		return nil, err
	}
	dense, err := NewDense(cfg.HiddenSize, cfg.InputSize, rng)
	if err != nil {
		return nil, err
	}
	n := &LanguageNetwork{cfg: cfg, lstm: lstm, dense: dense, rng: rng}
	n.scratch.New = func() any { return NewBatchScratch() }
	return n, nil
}

// Config returns the network configuration.
func (n *LanguageNetwork) Config() NetworkConfig { return n.cfg }

// Params returns all trainable parameters.
func (n *LanguageNetwork) Params() []*Param {
	return append(n.lstm.Params(), n.dense.Params()...)
}

// ParamCount returns the total number of trainable weights.
func (n *LanguageNetwork) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}

// validateSeq checks every index is either PaddingIndex (<0, zero input)
// or a valid action.
func (n *LanguageNetwork) validateSeq(seq []int) error {
	for i, x := range seq {
		if x >= n.cfg.InputSize {
			return fmt.Errorf("nn: sequence position %d index %d outside vocab %d", i, x, n.cfg.InputSize)
		}
	}
	return nil
}

// ForwardAll runs the network in inference mode over a sequence and
// returns, for every step t, the predicted distribution over the action
// following seq[:t+1]. No dropout is applied. It is the scalar
// reference: Step, Dense.Forward and Softmax, one allocation per step,
// which the tests hold every stream to bit for bit.
func (n *LanguageNetwork) ForwardAll(seq []int) ([]tensor.Vector, error) {
	if err := n.validateSeq(seq); err != nil {
		return nil, err
	}
	st := n.lstm.NewState()
	out := make([]tensor.Vector, len(seq))
	for t, x := range seq {
		h := n.lstm.Step(st, x, nil)
		logits := n.dense.Forward(h)
		probs := tensor.NewVector(len(logits))
		tensor.Softmax(probs, logits)
		out[t] = probs
	}
	return out, nil
}

// StreamState is the incremental scorer used by the online monitor: it
// consumes one action at a time, returning the probability the model
// assigned to that action before consuming it. A stream is its recurrent
// state (H, C) and whether it has consumed an action: the prediction for
// the next action is softmax(dense(H)), a pure function of H, computed
// when that action arrives by the same kernels on the serial and batched
// paths, so a stream carries no scratch and no cached distribution. Its
// methods deliberately match the scorer.Stream, LikelihoodStream and
// MemSizer contracts — the neural network side of the pluggable
// backend seam — so lm can hand it to internal/core unwrapped (lm asserts
// the conformance; nn stays below the seam and does not import it).
type StreamState struct {
	net   *LanguageNetwork
	state State
	// primed reports whether the stream has consumed an action, i.e.
	// whether H holds a prediction; the first action has none.
	primed bool
}

// streamStructOverhead is the accounted size of the StreamState struct:
// the network pointer, the H and C slice headers and the primed flag.
const streamStructOverhead = 64

// NewStream returns a fresh incremental scorer; H and C share one
// allocation.
func (n *LanguageNetwork) NewStream() *StreamState {
	hs := n.cfg.HiddenSize
	hc := tensor.NewVector(2 * hs)
	return &StreamState{net: n, state: State{H: hc[:hs:hs], C: hc[hs:]}}
}

// ObserveLikelihood consumes one action and returns the probability the
// model assigned to it, -1 for the stream's first action. It is a batch
// of one through ObserveBatch, so a stream may move freely between
// serial and batched observation.
func (s *StreamState) ObserveLikelihood(action int) (float64, error) {
	streams, actions, liks := [1]*StreamState{s}, [1]int{action}, [1]float64{}
	err := s.net.ObserveBatch(streams[:], actions[:], liks[:])
	return liks[0], err
}

// Observe is ObserveLikelihood plus a freshly allocated distribution over
// the following action, for cold callers (experiments, tests) that read
// it. It is softmax(dense(H)) of the post-step H, bit-identical to the
// distribution the next observation reads its likelihood from (see
// batch.go); the stream keeps no copy.
func (s *StreamState) Observe(action int) (float64, tensor.Vector, error) {
	lik, err := s.ObserveLikelihood(action)
	if err != nil {
		return 0, nil, err
	}
	probs := s.net.dense.Forward(s.state.H)
	tensor.Softmax(probs, probs)
	return lik, probs, nil
}

// MemSize estimates the resident heap bytes of this stream's
// session-local state — the struct plus H and C — excluding the shared
// network weights. Implements the scorer.MemSizer seam via lm's
// assertion, like the Stream contract itself.
func (s *StreamState) MemSize() int {
	return 2*s.net.cfg.HiddenSize*8 + streamStructOverhead
}

// TrainSequence performs one forward/backward pass over a session,
// predicting each action from its predecessors (positions 1..n-1), and
// accumulates gradients of the mean per-step cross-entropy. It returns
// the mean loss and the number of predicted positions. The caller batches
// several calls and then applies the optimizer.
func (n *LanguageNetwork) TrainSequence(seq []int) (float64, int, error) {
	if len(seq) < 2 {
		return 0, 0, fmt.Errorf("nn: training sequence needs >= 2 actions, got %d", len(seq))
	}
	if err := n.validateSeq(seq); err != nil {
		return 0, 0, err
	}
	steps := len(seq) - 1
	caches := make([]stepCache, steps)
	hs := make([]tensor.Vector, steps)
	masks := make([]tensor.Vector, steps)
	dhs := make([]tensor.Vector, steps)

	st := n.lstm.NewState()
	var totalLoss float64
	inv := 1 / float64(steps)
	for t := 0; t < steps; t++ {
		h := n.lstm.Step(st, seq[t], &caches[t])
		dropped := h.Clone()
		mask, err := Dropout(dropped, n.cfg.DropoutRate, n.rng)
		if err != nil {
			return 0, 0, err
		}
		masks[t] = mask
		hs[t] = dropped
		logits := n.dense.Forward(dropped)
		_, loss, dLogits, err := SoftmaxCrossEntropy(logits, seq[t+1])
		if err != nil {
			return 0, 0, err
		}
		totalLoss += loss
		dLogits.Scale(inv)
		dh := n.dense.Backward(dropped, dLogits)
		DropoutBackward(dh, mask)
		dhs[t] = dh
	}

	// Backpropagation through time.
	dC := tensor.NewVector(n.cfg.HiddenSize)
	dH := tensor.NewVector(n.cfg.HiddenSize)
	for t := steps - 1; t >= 0; t-- {
		dH.AddScaled(1, dhs[t])
		var dHPrev, dCPrev tensor.Vector
		dHPrev, dCPrev = n.lstm.backwardStep(&caches[t], dH, dC)
		dH = dHPrev
		dC = dCPrev
	}
	return totalLoss * inv, steps, nil
}

// TrainWindow performs one forward/backward pass over a fixed window in
// the paper's many-to-one formulation: the network consumes the padded
// context (PaddingIndex entries are zero inputs) and is trained to predict
// only the target action. Gradients of the window loss are accumulated.
func (n *LanguageNetwork) TrainWindow(input []int, target int) (float64, error) {
	if len(input) == 0 {
		return 0, fmt.Errorf("nn: empty window input")
	}
	if err := n.validateSeq(input); err != nil {
		return 0, err
	}
	if target < 0 || target >= n.cfg.InputSize {
		return 0, fmt.Errorf("nn: window target %d outside vocab %d", target, n.cfg.InputSize)
	}
	steps := len(input)
	caches := make([]stepCache, steps)
	st := n.lstm.NewState()
	var h tensor.Vector
	for t := 0; t < steps; t++ {
		h = n.lstm.Step(st, input[t], &caches[t])
	}
	dropped := h.Clone()
	mask, err := Dropout(dropped, n.cfg.DropoutRate, n.rng)
	if err != nil {
		return 0, err
	}
	logits := n.dense.Forward(dropped)
	_, loss, dLogits, err := SoftmaxCrossEntropy(logits, target)
	if err != nil {
		return 0, err
	}
	dh := n.dense.Backward(dropped, dLogits)
	DropoutBackward(dh, mask)

	dC := tensor.NewVector(n.cfg.HiddenSize)
	dH := dh
	for t := steps - 1; t >= 0; t-- {
		dH, dC = n.lstm.backwardStep(&caches[t], dH, dC)
	}
	return loss, nil
}
