package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"misusedetect/internal/scorer"
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
	if raceEnabled {
		t.Skip("sync.Pool.Put drops items at random under -race; see raceEnabled")
	}
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

// BenchmarkObserveBatch measures the serving call at the shapes the
// engine's waves give it: a 300-action vocabulary at H = 16 and 256,
// with 1 to 64 primed streams per call (a paced LSTM-16 workload makes
// mostly 1- to 4-row calls, a saturated LSTM-256 one about 14). It
// reports ns per row: one likelihood and one step.
func BenchmarkObserveBatch(b *testing.B) {
	for _, hidden := range []int{16, 256} {
		net, err := NewLanguageNetwork(NetworkConfig{InputSize: 300, HiddenSize: hidden, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, rows := range []int{1, 2, 3, 4, 14, 64} {
			b.Run(fmt.Sprintf("H%d/rows%d", hidden, rows), func(b *testing.B) {
				streams := make([]scorer.Stream, rows)
				for i := range streams {
					streams[i] = net.NewStream()
				}
				actions, liks := make([]int, rows), make([]float64, rows)
				if err := net.AdvanceBatch(streams, actions, liks); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range actions {
						actions[j] = (i*7 + j) % 300
					}
					if err := net.AdvanceBatch(streams, actions, liks); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}

// BenchmarkTrainBatchPaperSize measures one optimizer step of lockstep
// training at the paper's size and settings: a minibatch of 32 ragged
// BPTT segments of 2 to 100 actions from a fixed seed, dropout 0.4,
// forward, backward and the Adam step. steps/s counts predicted actions
// (BPTT time steps) per second.
func BenchmarkTrainBatchPaperSize(b *testing.B) { benchTrainBatch(b, 0.4, 32, 100) }

// BenchmarkTrainBatchSmallCluster is BenchmarkTrainBatchPaperSize at
// the shape a small behavior cluster trains at in the bench set-up: one
// minibatch of 12 ragged segments of 2 to 30 actions, dropout 0, so
// most steps have only a few live rows.
func BenchmarkTrainBatchSmallCluster(b *testing.B) { benchTrainBatch(b, 0, 12, 30) }

// benchTrainBatch times trainBatch and the Adam step at H 256, V 300 on
// one minibatch of segments ragged segments of 2 to maxLen actions.
func benchTrainBatch(b *testing.B, dropout float64, segments, maxLen int) {
	net, err := NewLanguageNetwork(NetworkConfig{InputSize: 300, HiddenSize: 256, DropoutRate: dropout, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewTrainer(net, PaperConfig(300, 0).Trainer)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]example, segments)
	steps := 0
	for i := range batch {
		seg := randomSeq(2+rng.Intn(maxLen-1), 300, rng.Int63())
		batch[i] = example{in: seg[:len(seg)-1], out: seg[1:]}
		steps += len(seg) - 1
	}
	params := net.Params()
	allocGrads(params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var loss float64
		tr.trainBatch(batch, &loss)
		tr.step(params, len(batch))
	}
	b.ReportMetric(float64(b.N)*float64(steps)/b.Elapsed().Seconds(), "steps/s")
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
	allocGrads(params)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adam.Step(params)
	}
}

// BenchmarkScoreStreamAvgSession measures scoring one average-length
// session (15 actions) at the paper's model size (256 LSTM units, 300
// actions) through scorer.ScoreStream, the offline scoring path.
func BenchmarkScoreStreamAvgSession(b *testing.B) {
	net, err := NewLanguageNetwork(PaperConfig(300, 1).Network)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	session := make([]int, 15)
	for i := range session {
		session[i] = rng.Intn(300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scorer.ScoreStream(net, session); err != nil {
			b.Fatal(err)
		}
	}
}
