package nn

import (
	"math"
	"math/rand"
	"testing"

	"misusedetect/internal/tensor"
)

// batchNet builds a randomly initialized network (random init is
// enough: the equivalence contracts are about kernels, not accuracy).
func batchNet(t *testing.T, vocab, hidden int) *LanguageNetwork {
	t.Helper()
	net, err := NewLanguageNetwork(NetworkConfig{InputSize: vocab, HiddenSize: hidden, DropoutRate: 0, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestStepBatchMatchesStep pins the batched LSTM step to the scalar
// reference step bit for bit, across batch sizes that exercise the
// GEMM kernel's unroll and block tails. This equality is the foundation
// of the engine's byte-identical deterministic replay with
// micro-batching enabled. The saturated case scales the weights so the
// pre-activations reach every regime of sigmoid and tanh, including
// gates whose exp leaves the vector kernel's range and cells that grow
// past tanh's saturation, at a hidden size that leaves a partial group
// of four in every ExpInto call.
func TestStepBatchMatchesStep(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		checkStepBatch(t, batchNet(t, 37, 19), 11, rand.New(rand.NewSource(9)))
	})
	t.Run("saturated", func(t *testing.T) {
		net := batchNet(t, 37, 21)
		for _, p := range net.lstm.Params() {
			p.W.Scale(40)
		}
		// In every other unit, open input and forget gates (their exp
		// far below the kernel's range) and a candidate pinned to ±1
		// grow the cell by ~1 per step, past 0.5·MAXLOG ≈ 44.
		for k := 0; k < 21; k += 2 {
			net.lstm.B.W.Data[k] = 900
			net.lstm.B.W.Data[21+k] = 900
			net.lstm.B.W.Data[63+k] += float64(k%3-1) * 800
		}
		checkStepBatch(t, net, 60, rand.New(rand.NewSource(3)))
	})
}

// checkStepBatch steps batches of fresh states through StepBatch and
// Step side by side for the given number of steps and fails on the
// first hidden or cell value that differs in any bit.
func checkStepBatch(t *testing.T, net *LanguageNetwork, steps int, rng *rand.Rand) {
	t.Helper()
	vocab, hidden := net.lstm.InputSize, net.lstm.HiddenSize
	for _, batch := range []int{1, 2, 3, 4, 5, 7, 33, 64} {
		serial := make([]*State, batch)
		batched := make([]*State, batch)
		for i := range serial {
			serial[i] = net.lstm.NewState()
			batched[i] = net.lstm.NewState()
		}
		bscratch := NewBatchScratch()
		xs := make([]int, batch)
		for step := 0; step < steps; step++ {
			for i := range xs {
				xs[i] = rng.Intn(vocab+1) - 1 // includes padding inputs
			}
			net.lstm.StepBatch(batched, xs, bscratch)
			for i, st := range serial {
				net.lstm.Step(st, xs[i], nil)
				for k := 0; k < hidden; k++ {
					if math.Float64bits(st.H[k]) != math.Float64bits(batched[i].H[k]) ||
						math.Float64bits(st.C[k]) != math.Float64bits(batched[i].C[k]) {
						t.Fatalf("batch %d step %d stream %d unit %d: serial (h=%v c=%v) batched (h=%v c=%v)",
							batch, step, i, k, st.H[k], st.C[k], batched[i].H[k], batched[i].C[k])
					}
				}
			}
		}
	}
}

// TestSplitNonlinearitiesMatchScalar pins sigmoidFromExp and
// tanhFromExp, fed math.Exp of their exp arguments, to sigmoid and
// math.Tanh bit for bit at every branch edge of both functions and on
// random draws across all their regimes.
func TestSplitNonlinearitiesMatchScalar(t *testing.T) {
	half := 0.5 * tanhMaxLog
	xs := []float64{
		0, math.Copysign(0, -1), 0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
		half, math.Nextafter(half, 0), math.Nextafter(half, 100),
		1e-300, 0x1p-1074, 707, 708, 709, 710, 745.2, 800, 1e300, math.Inf(1), math.NaN(),
	}
	for _, x := range xs[:len(xs)-1] {
		xs = append(xs, -x)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(5)-2)))
	}
	for _, x := range xs {
		if got, want := sigmoidFromExp(x, math.Exp(sigmoidExpArg(x))), sigmoid(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sigmoidFromExp(%v) = %v (%#x), sigmoid %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := tanhFromExp(x, math.Exp(tanhExpArg(x))), math.Tanh(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tanhFromExp(%v) = %v (%#x), math.Tanh %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// eagerRef is the eager serial reference the lazy streams must match:
// it steps with the allocating LSTM.Step and computes the whole next
// distribution with Dense.Forward + Softmax after every step, reading
// each likelihood from the distribution the previous step left.
type eagerRef struct {
	net  *LanguageNetwork
	st   *State
	next tensor.Vector
}

func (r *eagerRef) observe(a int) float64 {
	lik := -1.0
	if r.next != nil {
		lik = r.next[a]
	}
	r.next = r.net.dense.Forward(r.net.lstm.Step(r.st, a, nil))
	tensor.Softmax(r.next, r.next)
	return lik
}

// restore rebuilds a stream from a copy of its (H, C, primed) — the
// whole of a stream's state, and what a dormant session comes back as.
func restore(s *StreamState) *StreamState {
	return &StreamState{net: s.net, state: *s.state.Clone(), primed: s.primed}
}

// TestObserveBatchMatchesObserve pins lazy scoring — the likelihood
// read from softmax(dense(H)) when the action arrives, through the
// batched GEMMs or a batch of one — to the eager serial reference bit
// for bit. Batch sizes hit the output GEMM's tile tails; each step some
// streams are replaced by fresh (unprimed) or restored ones, and each
// stream alternates between serial and batched observation, the way
// engine waves, session births and rehydration mix them.
func TestObserveBatchMatchesObserve(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		const vocab, hidden = 29, 13
		net := batchNet(t, vocab, hidden)
		rng := rand.New(rand.NewSource(17))
		mixed := false
		for _, batch := range []int{1, 2, 7, 64} {
			refs := make([]*eagerRef, batch)
			streams := make([]*StreamState, batch)
			fresh := func(i int) {
				streams[i] = net.NewStream()
				refs[i] = &eagerRef{net: net, st: net.lstm.NewState()}
			}
			for i := range streams {
				fresh(i)
			}
			actions := make([]int, batch)
			liks := make([]float64, batch)
			for step := 0; step < 12; step++ {
				restored := make([]bool, batch)
				dists := make([]tensor.Vector, batch)
				for i := range streams {
					actions[i] = rng.Intn(vocab)
					switch rng.Intn(6) {
					case 0:
						fresh(i)
					case 1:
						streams[i], restored[i] = restore(streams[i]), true
					}
				}
				var sub []*StreamState
				var subActions, subIdx []int
				var unprimed, primed, rest int
				for i, st := range streams {
					if (i+step)%3 != 0 {
						sub, subActions, subIdx = append(sub, st), append(subActions, actions[i]), append(subIdx, i)
						switch {
						case restored[i]:
							rest++
						case st.primed:
							primed++
						default:
							unprimed++
						}
						continue
					}
					// Serial: a batch of one, with or without the full
					// distribution, which must equal the reference's.
					if step%2 == 0 {
						lik, err := st.ObserveLikelihood(actions[i])
						if err != nil {
							t.Fatal(err)
						}
						liks[i] = lik
						continue
					}
					lik, probs, err := st.Observe(actions[i])
					if err != nil {
						t.Fatal(err)
					}
					liks[i], dists[i] = lik, probs
				}
				mixed = mixed || unprimed > 0 && primed > 0 && rest > 0
				subLiks := make([]float64, len(sub))
				if err := net.ObserveBatch(sub, subActions, subLiks); err != nil {
					t.Fatal(err)
				}
				for k, i := range subIdx {
					liks[i] = subLiks[k]
				}
				for i, ref := range refs {
					if want := ref.observe(actions[i]); math.Float64bits(liks[i]) != math.Float64bits(want) {
						t.Fatalf("batch %d step %d stream %d: likelihood %v, reference %v", batch, step, i, liks[i], want)
					}
					for a, p := range dists[i] {
						if math.Float64bits(p) != math.Float64bits(ref.next[a]) {
							t.Fatalf("batch %d step %d stream %d: Observe prob[%d] %v, reference %v",
								batch, step, i, a, p, ref.next[a])
						}
					}
				}
			}
		}
		if !mixed {
			t.Fatal("no ObserveBatch call mixed unprimed, primed and restored streams")
		}
	})
}

func TestObserveBatchRejectsForeignStream(t *testing.T) {
	a := batchNet(t, 11, 5)
	b := batchNet(t, 11, 5)
	streams := []*StreamState{a.NewStream(), b.NewStream()}
	err := a.ObserveBatch(streams, []int{1, 2}, make([]float64, 2))
	if err == nil {
		t.Fatal("ObserveBatch accepted a stream from a different network")
	}
}

func TestObserveBatchSteadyStateAllocs(t *testing.T) {
	net := batchNet(t, 41, 23)
	const batch = 16
	streams := make([]*StreamState, batch)
	for i := range streams {
		streams[i] = net.NewStream()
	}
	actions := make([]int, batch)
	liks := make([]float64, batch)
	// Warm the network's pooled scratch first (AllocsPerRun's own warm-up
	// run then grows the output rows, once every stream is primed).
	if err := net.ObserveBatch(streams, actions, liks); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		for j := range actions {
			actions[j] = (i + j) % 41
		}
		i++
		if err := net.ObserveBatch(streams, actions, liks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ObserveBatch allocated %.1f times per tick in steady state, want 0", allocs)
	}
}
