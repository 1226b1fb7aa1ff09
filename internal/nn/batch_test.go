package nn

import (
	"math/rand"
	"testing"
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

// TestStepBatchMatchesStepReuse pins the batched LSTM step to the
// serial scratch step bit for bit, across batch sizes that exercise the
// GEMM kernel's unroll and block tails. This equality is the foundation
// of the engine's byte-identical deterministic replay with
// micro-batching enabled.
func TestStepBatchMatchesStepReuse(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		const vocab, hidden = 37, 19
		net := batchNet(t, vocab, hidden)
		rng := rand.New(rand.NewSource(9))
		for _, batch := range []int{1, 2, 3, 4, 5, 7, 33, 64} {
			serial := make([]*State, batch)
			batched := make([]*State, batch)
			for i := range serial {
				serial[i] = net.lstm.NewState()
				batched[i] = net.lstm.NewState()
			}
			scratch := net.lstm.NewStepScratch()
			bscratch := NewBatchScratch()
			xs := make([]int, batch)
			for step := 0; step < 11; step++ {
				for i := range xs {
					xs[i] = rng.Intn(vocab+1) - 1 // includes padding inputs
				}
				net.lstm.StepBatch(batched, xs, bscratch)
				view := bscratch.Batched(batched)
				for i, st := range serial {
					net.lstm.StepReuse(st, xs[i], scratch)
					for k := 0; k < hidden; k++ {
						if st.H[k] != batched[i].H[k] || st.C[k] != batched[i].C[k] {
							t.Fatalf("batch %d step %d stream %d unit %d: serial (h=%v c=%v) batched (h=%v c=%v)",
								batch, step, i, k, st.H[k], st.C[k], batched[i].H[k], batched[i].C[k])
						}
						if view.H.At(i, k) != st.H[k] {
							t.Fatalf("packed hidden view row %d unit %d: %v want %v",
								i, k, view.H.At(i, k), st.H[k])
						}
					}
				}
			}
		}
	})
}

// TestObserveBatchMatchesObserve pins the full batched observation
// (LSTM step + dense GEMM + softmax + likelihood read) to serial
// Observe bit for bit, with streams moving between serial and batched
// observation across steps the way engine ticks mix them.
func TestObserveBatchMatchesObserve(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		const vocab, hidden, batch = 29, 13, 6
		net := batchNet(t, vocab, hidden)
		rng := rand.New(rand.NewSource(17))
		serial := make([]*StreamState, batch)
		batched := make([]*StreamState, batch)
		for i := range serial {
			serial[i] = net.NewStreamPrealloc()
			batched[i] = net.NewStreamPrealloc()
		}
		scratch := NewBatchScratch()
		actions := make([]int, batch)
		liks := make([]float64, batch)
		for step := 0; step < 9; step++ {
			for i := range actions {
				actions[i] = rng.Intn(vocab)
			}
			if step%3 == 2 {
				// Mixed tick: advance serially, like a batch-1 wave.
				for i, st := range batched {
					lik, _, err := st.Observe(actions[i])
					if err != nil {
						t.Fatal(err)
					}
					liks[i] = lik
				}
			} else if err := net.ObserveBatch(batched, actions, liks, scratch); err != nil {
				t.Fatal(err)
			}
			for i, st := range serial {
				wantLik, wantProbs, err := st.Observe(actions[i])
				if err != nil {
					t.Fatal(err)
				}
				if liks[i] != wantLik {
					t.Fatalf("step %d stream %d: likelihood %v, serial %v", step, i, liks[i], wantLik)
				}
				for a := 0; a < vocab; a++ {
					if batched[i].nextProbs[a] != wantProbs[a] {
						t.Fatalf("step %d stream %d action %d: prob %v, serial %v",
							step, i, a, batched[i].nextProbs[a], wantProbs[a])
					}
				}
			}
		}
	})
}

func TestObserveBatchRejectsForeignStream(t *testing.T) {
	a := batchNet(t, 11, 5)
	b := batchNet(t, 11, 5)
	streams := []*StreamState{a.NewStreamPrealloc(), b.NewStreamPrealloc()}
	err := a.ObserveBatch(streams, []int{1, 2}, make([]float64, 2), NewBatchScratch())
	if err == nil {
		t.Fatal("ObserveBatch accepted a stream from a different network")
	}
}

func TestObserveBatchSteadyStateAllocs(t *testing.T) {
	net := batchNet(t, 41, 23)
	const batch = 16
	streams := make([]*StreamState, batch)
	for i := range streams {
		streams[i] = net.NewStreamPrealloc()
	}
	scratch := NewBatchScratch()
	actions := make([]int, batch)
	liks := make([]float64, batch)
	// Warm the scratch to its steady-state size first.
	if err := net.ObserveBatch(streams, actions, liks, scratch); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		for j := range actions {
			actions[j] = (i + j) % 41
		}
		i++
		if err := net.ObserveBatch(streams, actions, liks, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ObserveBatch allocated %.1f times per tick in steady state, want 0", allocs)
	}
}
