package nn

import (
	"math/rand"
	"testing"
)

// paperSizedNet builds a network at the paper's published size: 256 LSTM
// units over a 300-action vocabulary.
func paperSizedNet(b *testing.B) *LanguageNetwork {
	b.Helper()
	net, err := NewLanguageNetwork(NetworkConfig{InputSize: 300, HiddenSize: 256, DropoutRate: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func randomSeq(n, vocab int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(vocab)
	}
	return seq
}

// BenchmarkLSTMStepPaperSize measures one serial serving step at the
// paper's model size: StreamState.ObserveLikelihood, the likelihood of
// the action from the output layer plus the LSTM step that consumes it
// (the per-action cost of an unbatched session). It must not allocate:
// allocs/op is reported and TestLSTMStepPaperSizeZeroAllocs fails the
// build if a regression reintroduces per-step allocation.
func BenchmarkLSTMStepPaperSize(b *testing.B) {
	net := paperSizedNet(b)
	st := net.NewStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.ObserveLikelihood(i % 300); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLSTMStepPaperSizeZeroAllocs is the loud guard behind the
// benchmark's allocs/op report: at paper size, where the pooled
// scratch is largest, the serial serving step must stay
// allocation-free in steady state.
func TestLSTMStepPaperSizeZeroAllocs(t *testing.T) {
	net, err := NewLanguageNetwork(NetworkConfig{InputSize: 300, HiddenSize: 256, DropoutRate: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := net.NewStream()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.ObserveLikelihood(i % 300); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("ObserveLikelihood allocated %.1f times per step, want 0", allocs)
	}
}

// BenchmarkLSTMStepBatch measures the cross-session batched step at
// paper size for contrast with the serial benchmark above: amortizing
// the weight traffic over 64 live streams is the speedup the engine's
// tick batching harvests.
func BenchmarkLSTMStepBatch64(b *testing.B) {
	net := paperSizedNet(b)
	const streams = 64
	states := make([]*State, streams)
	xs := make([]int, streams)
	for i := range states {
		states[i] = net.lstm.NewState()
	}
	scratch := NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range xs {
			xs[j] = (i + j) % 300
		}
		net.lstm.StepBatch(states, xs, scratch)
	}
	b.ReportMetric(float64(b.N)*streams/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkTrainSequencePaperSize measures one BPTT pass over an
// average session at paper size (the training inner loop).
func BenchmarkTrainSequencePaperSize(b *testing.B) {
	net := paperSizedNet(b)
	seq := randomSeq(15, 300, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.TrainSequence(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainWindowPaper measures the paper's exact many-to-one window
// formulation on a full 99-action context.
func BenchmarkTrainWindowPaper(b *testing.B) {
	net := paperSizedNet(b)
	input := randomSeq(99, 300, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainWindow(input, i%300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdamStepPaperSize measures one optimizer step over the full
// parameter set.
func BenchmarkAdamStepPaperSize(b *testing.B) {
	net := paperSizedNet(b)
	adam, err := NewAdam(0.001)
	if err != nil {
		b.Fatal(err)
	}
	params := net.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adam.Step(params)
	}
}
