package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"misusedetect/internal/tensor"
)

// The scalar training path, kept as the oracle the lockstep trainer is
// held to bit for bit: each example runs alone, one step at a time, with
// allocating matvecs and rank-1 updates. It is the body of the trainer
// before minibatches ran in lockstep.

// stepCache stores everything the scalar backward pass needs for one
// step.
type stepCache struct {
	x          int // input index, PaddingIndex (<0) means zero input
	hPrev      tensor.Vector
	cPrev      tensor.Vector
	i, f, o, g tensor.Vector
	c          tensor.Vector
	tanhC      tensor.Vector
}

// refStep is LSTM.Step that also records the step's cache.
func refStep(l *LSTM, st *State, x int, cache *stepCache) tensor.Vector {
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
	cache.x = x
	cache.hPrev = st.H.Clone()
	cache.cPrev = st.C.Clone()
	cache.i, cache.f, cache.o, cache.g = i, f, o, g
	cache.c = c
	cache.tanhC = tanhC
	st.H = h
	st.C = c
	return h
}

// backwardStep accumulates parameter gradients for one cached step given
// dH (gradient w.r.t. the step's output hidden vector) and dC (gradient
// flowing into the cell state from the future). It returns the gradients
// w.r.t. the previous hidden and cell state.
func backwardStep(l *LSTM, cache *stepCache, dH, dC tensor.Vector) (dHPrev, dCPrev tensor.Vector) {
	hs := l.HiddenSize
	dz := tensor.NewVector(4 * hs)
	dCPrev = tensor.NewVector(hs)
	for k := 0; k < hs; k++ {
		do := dH[k] * cache.tanhC[k]
		dc := dC[k] + dH[k]*cache.o[k]*(1-cache.tanhC[k]*cache.tanhC[k])
		di := dc * cache.g[k]
		df := dc * cache.cPrev[k]
		dg := dc * cache.i[k]
		dCPrev[k] = dc * cache.f[k]

		dz[k] = di * cache.i[k] * (1 - cache.i[k])
		dz[hs+k] = df * cache.f[k] * (1 - cache.f[k])
		dz[2*hs+k] = do * cache.o[k] * (1 - cache.o[k])
		dz[3*hs+k] = dg * (1 - cache.g[k]*cache.g[k])
	}
	if cache.x >= 0 {
		for r := 0; r < 4*hs; r++ {
			l.Wx.G.Data[r*l.InputSize+cache.x] += dz[r]
		}
	}
	l.Wh.G.AddOuter(1, dz, cache.hPrev)
	for r := 0; r < 4*hs; r++ {
		l.B.G.Data[r] += dz[r]
	}
	dHPrev = tensor.NewVector(hs)
	l.Wh.W.MulVecTAdd(dHPrev, dz)
	return dHPrev, dCPrev
}

// denseBackward accumulates the dense layer's gradients given the input
// that produced the logits and dLogits, returning dX.
func denseBackward(d *Dense, x, dLogits tensor.Vector) tensor.Vector {
	d.W.G.AddOuter(1, dLogits, x)
	for i, g := range dLogits {
		d.B.G.Data[i] += g
	}
	dx := tensor.NewVector(d.InputSize)
	d.W.W.MulVecTAdd(dx, dLogits)
	return dx
}

// SoftmaxCrossEntropy computes the softmax probabilities of logits and the
// cross-entropy loss against the target class; dLogits = probs - onehot is
// written into the returned gradient, the standard fused formulation.
func SoftmaxCrossEntropy(logits tensor.Vector, target int) (probs tensor.Vector, loss float64, dLogits tensor.Vector, err error) {
	if target < 0 || target >= len(logits) {
		return nil, 0, nil, fmt.Errorf("nn: target %d outside [0,%d)", target, len(logits))
	}
	probs = tensor.NewVector(len(logits))
	tensor.Softmax(probs, logits)
	p := probs[target]
	if p < 1e-300 {
		p = 1e-300
	}
	loss = -math.Log(p)
	dLogits = probs.Clone()
	dLogits[target] -= 1
	return probs, loss, dLogits, nil
}

// Dropout applies inverted dropout to x in place using the supplied rng:
// each unit is zeroed with probability rate and survivors are scaled by
// 1/(1-rate). It returns the mask so the backward pass can replay it.
// A nil rng or zero rate is the identity (inference mode).
func Dropout(x tensor.Vector, rate float64, rng *rand.Rand) (tensor.Vector, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate %v outside [0,1)", rate)
	}
	if rng == nil || rate == 0 {
		return nil, nil
	}
	mask := tensor.NewVector(len(x))
	scale := 1 / (1 - rate)
	for i := range x {
		if rng.Float64() < rate {
			mask[i] = 0
			x[i] = 0
		} else {
			mask[i] = scale
			x[i] *= scale
		}
	}
	return mask, nil
}

// DropoutBackward applies the saved mask to the gradient in place; a nil
// mask is the identity.
func DropoutBackward(dx tensor.Vector, mask tensor.Vector) {
	if mask == nil {
		return
	}
	for i := range dx {
		dx[i] *= mask[i]
	}
}

// refTrainSequence is the scalar per-step sequence pass: the network
// reads in and predicts out[t] after in[t], accumulating gradients of the
// mean per-step cross-entropy. It returns the mean loss.
func refTrainSequence(n *LanguageNetwork, in, out []int) float64 {
	steps := len(in)
	caches := make([]stepCache, steps)
	dhs := make([]tensor.Vector, steps)
	st := n.lstm.NewState()
	var totalLoss float64
	inv := 1 / float64(steps)
	for t := 0; t < steps; t++ {
		h := refStep(n.lstm, st, in[t], &caches[t])
		dropped := h.Clone()
		mask, err := Dropout(dropped, n.cfg.DropoutRate, n.rng)
		if err != nil {
			panic(err)
		}
		logits := n.dense.Forward(dropped)
		_, loss, dLogits, err := SoftmaxCrossEntropy(logits, out[t])
		if err != nil {
			panic(err)
		}
		totalLoss += loss
		dLogits.Scale(inv)
		dh := denseBackward(n.dense, dropped, dLogits)
		DropoutBackward(dh, mask)
		dhs[t] = dh
	}
	dC := tensor.NewVector(n.cfg.HiddenSize)
	dH := tensor.NewVector(n.cfg.HiddenSize)
	for t := steps - 1; t >= 0; t-- {
		dH.AddScaled(1, dhs[t])
		dH, dC = backwardStep(n.lstm, &caches[t], dH, dC)
	}
	return totalLoss * inv
}

// refTrainWindow is the scalar many-to-one window pass: the network
// reads input and is trained to predict target after its last action.
func refTrainWindow(n *LanguageNetwork, input []int, target int) float64 {
	steps := len(input)
	caches := make([]stepCache, steps)
	st := n.lstm.NewState()
	var h tensor.Vector
	for t := 0; t < steps; t++ {
		h = refStep(n.lstm, st, input[t], &caches[t])
	}
	dropped := h.Clone()
	mask, err := Dropout(dropped, n.cfg.DropoutRate, n.rng)
	if err != nil {
		panic(err)
	}
	logits := n.dense.Forward(dropped)
	_, loss, dLogits, err := SoftmaxCrossEntropy(logits, target)
	if err != nil {
		panic(err)
	}
	dh := denseBackward(n.dense, dropped, dLogits)
	DropoutBackward(dh, mask)
	dC := tensor.NewVector(n.cfg.HiddenSize)
	dH := dh
	for t := steps - 1; t >= 0; t-- {
		dH, dC = backwardStep(n.lstm, &caches[t], dH, dC)
	}
	return loss
}

// refTrainBatch runs a minibatch through the scalar path, example by
// example, adding each loss to *lossSum the way the trainer weighs it.
func refTrainBatch(t *Trainer, batch []example, lossSum *float64) {
	for _, ex := range batch {
		if t.cfg.Windowed {
			*lossSum += refTrainWindow(t.net, ex.in, ex.out[0])
			continue
		}
		*lossSum += refTrainSequence(t.net, ex.in, ex.out) * float64(len(ex.out))
	}
}

// refFit is Trainer.Fit on the scalar path.
func refFit(t *Trainer, sessions [][]int) ([]EpochStats, error) {
	examples, err := t.examples(sessions)
	if err != nil {
		return nil, err
	}
	params := t.net.Params()
	var stats []EpochStats
	for epoch := 0; epoch < t.effectiveEpochs(len(examples)); epoch++ {
		t.rng.Shuffle(len(examples), func(i, j int) { examples[i], examples[j] = examples[j], examples[i] })
		var lossSum float64
		var targets int
		for lo := 0; lo < len(examples); lo += t.cfg.BatchSize {
			batch := examples[lo:min(lo+t.cfg.BatchSize, len(examples))]
			refTrainBatch(t, batch, &lossSum)
			for _, ex := range batch {
				targets += len(ex.out)
			}
			t.step(params, len(batch))
		}
		stats = append(stats, EpochStats{Epoch: epoch, Loss: lossSum / float64(targets), Examples: targets})
	}
	return stats, nil
}

// sameBits fails the test on the first weight or Adam moment of the two
// trainers' networks that differs in any bit.
func sameBits(t *testing.T, a, b *Trainer) {
	t.Helper()
	pa, pb := a.net.Params(), b.net.Params()
	for i := range pa {
		for _, m := range []struct {
			name string
			x, y *tensor.Matrix
		}{
			{"w", pa[i].W, pb[i].W},
			{"adam m", a.adam.m[pa[i]], b.adam.m[pb[i]]},
			{"adam v", a.adam.v[pa[i]], b.adam.v[pb[i]]},
		} {
			for j := range m.x.Data {
				if math.Float64bits(m.x.Data[j]) != math.Float64bits(m.y.Data[j]) {
					t.Fatalf("%s %s[%d]: lockstep %v, serial %v", pa[i].Name, m.name, j, m.x.Data[j], m.y.Data[j])
				}
			}
		}
	}
}

// raggedSessions draws sessions of 1 to maxLen actions, with a few of
// exactly two actions.
func raggedSessions(rng *rand.Rand, count, maxLen, vocab int) [][]int {
	out := make([][]int, count)
	for i := range out {
		n := 1 + rng.Intn(maxLen)
		if i%5 == 0 {
			n = 2
		}
		out[i] = randomSeq(n, vocab, rng.Int63())
	}
	return out
}

// TestTrainBatchMatchesSerial trains two networks from one seed, one on
// the lockstep path and one on the scalar oracle, and requires every
// weight, every Adam moment and every epoch loss to be equal bit for
// bit. Sessions are ragged, include two-action sessions and sessions
// longer than the window (split into several BPTT segments), and batch
// sizes 1, 5 and 32 run the recurrent GEMMs on one live row and on
// many. H = 9 and V = 23 pad every packed stride (the gate rows' 36
// lanes to 48, the logit rows' 23 to 32, the hidden rows' 9 to 16), so
// the zeroed pad lanes of the gate and logit rows run through the
// backward products' K.
func TestTrainBatchMatchesSerial(t *testing.T) {
	const vocab, hidden = 23, 9
	sessions := raggedSessions(rand.New(rand.NewSource(5)), 45, 17, vocab)
	for _, windowed := range []bool{false, true} {
		for _, dropout := range []float64{0, 0.4} {
			for _, batch := range []int{1, 5, 32} {
				name := fmt.Sprintf("windowed=%v/dropout=%v/batch=%d", windowed, dropout, batch)
				t.Run(name, func(t *testing.T) {
					cfg := TrainerConfig{
						Epochs: 2, BatchSize: batch, LearningRate: 0.05, ClipNorm: 1,
						Seed: 3, Windowed: windowed, WindowSize: 7,
					}
					lock, serial := pairedTrainers(t, vocab, hidden, dropout, cfg)
					got, err := lock.Fit(sessions, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refFit(serial, sessions)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(got[i].Loss) != math.Float64bits(want[i].Loss) || got[i].Examples != want[i].Examples {
							t.Fatalf("epoch %d: lockstep %+v, serial %+v", i, got[i], want[i])
						}
					}
					sameBits(t, lock, serial)
				})
			}
		}
	}
	// Padded inputs (x < 0, a zero input) anywhere in an example, which
	// Fit never builds, through minibatches of hand-made examples.
	for _, windowed := range []bool{false, true} {
		t.Run(fmt.Sprintf("padded/windowed=%v", windowed), func(t *testing.T) {
			cfg := TrainerConfig{Epochs: 1, BatchSize: 4, LearningRate: 0.05, ClipNorm: 1, Seed: 1, Windowed: windowed, WindowSize: 7}
			lock, serial := pairedTrainers(t, vocab, hidden, 0.4, cfg)
			rng := rand.New(rand.NewSource(8))
			for step := 0; step < 4; step++ {
				var batch []example
				for i := 0; i < 1+step; i++ {
					in := randomSeq(1+rng.Intn(9), vocab, rng.Int63())
					for k := range in {
						if rng.Intn(3) == 0 {
							in[k] = -1
						}
					}
					out := randomSeq(len(in), vocab, rng.Int63())
					if windowed {
						out = out[:1]
					}
					batch = append(batch, example{in: in, out: out})
				}
				var got, want float64
				lock.trainBatch(batch, &got)
				refTrainBatch(serial, batch, &want)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d loss: lockstep %v, serial %v", step, got, want)
				}
				lock.step(lock.net.Params(), len(batch))
				serial.step(serial.net.Params(), len(batch))
				sameBits(t, lock, serial)
			}
		})
	}
}

// pairedTrainers builds two trainers of the same config over two
// networks built from the same seed, each network with the zeroed
// gradient buffers Fit would give it, so minibatches can be driven one
// at a time outside Fit.
func pairedTrainers(t *testing.T, vocab, hidden int, dropout float64, cfg TrainerConfig) (*Trainer, *Trainer) {
	t.Helper()
	var out [2]*Trainer
	for i := range out {
		tr, err := NewTrainer(testNet(t, vocab, hidden, dropout, 21), cfg)
		if err != nil {
			t.Fatal(err)
		}
		allocGrads(tr.net.Params())
		out[i] = tr
	}
	return out[0], out[1]
}
