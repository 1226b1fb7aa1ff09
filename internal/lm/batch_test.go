package lm

import (
	"math/rand"
	"testing"

	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// TestModelAdvanceBatchMatchesSerial pins the scorer.BatchStream
// implementation to the serial stream path bit for bit: the property
// the engine's deterministic-replay anchors stand on.
func TestModelAdvanceBatchMatchesSerial(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		const vocab, hidden, streams = 23, 11, 8
		net, err := nn.NewLanguageNetwork(nn.NetworkConfig{InputSize: vocab, HiddenSize: hidden, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m := New(net)
		batched := make([]scorer.Stream, streams)
		serial := make([]scorer.Stream, streams)
		for i := range batched {
			batched[i] = m.NewStream()
			serial[i] = m.NewStream()
		}
		rng := rand.New(rand.NewSource(31))
		actions := make([]int, streams)
		liks := make([]float64, streams)
		for tick := 0; tick < 12; tick++ {
			for i := range actions {
				actions[i] = rng.Intn(vocab)
			}
			if err := scorer.AdvanceBatch(m, batched, actions, liks); err != nil {
				t.Fatal(err)
			}
			for i, st := range serial {
				want, err := scorer.ObserveLikelihood(st, actions[i])
				if err != nil {
					t.Fatal(err)
				}
				if liks[i] != want {
					t.Fatalf("tick %d stream %d: batched likelihood %v, serial %v",
						tick, i, liks[i], want)
				}
			}
		}
	})
}
