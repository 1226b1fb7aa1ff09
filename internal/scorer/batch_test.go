package scorer

import (
	"io"
	"testing"

	"misusedetect/internal/tensor"
)

// countingStream is a minimal classical-backend stand-in: the
// likelihood is a deterministic function of how many actions the stream
// has consumed, so serial/batched equivalence is easy to assert.
type countingStream struct{ seen int }

func (s *countingStream) Observe(action int) (float64, tensor.Vector, error) {
	s.seen++
	return 1 / float64(s.seen+action), nil, nil
}

type countingScorer struct{}

func (countingScorer) Backend() string      { return "counting" }
func (countingScorer) VocabSize() int       { return 16 }
func (countingScorer) NewStream() Stream    { return &countingStream{} }
func (countingScorer) Save(io.Writer) error { return nil }

// TestAdvanceBatchSerialFallback pins the generic fallback: a backend
// without a fused batch path is advanced stream by stream, identically
// to calling ObserveLikelihood yourself — the reason n-gram and HMM need
// no changes to ride the engine's tick batching.
func TestAdvanceBatchSerialFallback(t *testing.T) {
	var s countingScorer
	batched := []Stream{s.NewStream(), s.NewStream(), s.NewStream()}
	serial := []Stream{s.NewStream(), s.NewStream(), s.NewStream()}
	actions := []int{3, 1, 4}
	liks := make([]float64, 3)
	for tick := 0; tick < 5; tick++ {
		if err := AdvanceBatch(s, batched, actions, liks); err != nil {
			t.Fatal(err)
		}
		for i, st := range serial {
			want, err := ObserveLikelihood(st, actions[i])
			if err != nil {
				t.Fatal(err)
			}
			if liks[i] != want {
				t.Fatalf("tick %d stream %d: batched %v, serial %v", tick, i, liks[i], want)
			}
		}
	}
}

func TestAdvanceBatchLengthMismatch(t *testing.T) {
	var s countingScorer
	err := AdvanceBatch(s, []Stream{s.NewStream()}, []int{1, 2}, make([]float64, 1))
	if err == nil {
		t.Fatal("AdvanceBatch accepted mismatched lengths")
	}
}
