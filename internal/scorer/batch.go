package scorer

import "fmt"

// BatchStream is an optional Scorer extension for backends that can
// advance many independent session streams in one fused call — the seam
// behind the engine's cross-session micro-batched LSTM inference. A
// shard that has grouped the streams of one tick by model drives them
// through AdvanceBatch, which must be observationally identical to
// calling streams[i].ObserveLikelihood(actions[i]) serially for every
// i (the LSTM backend makes it bit-identical, which is what keeps
// deterministic replay byte-stable). The streams must be distinct,
// belong to the implementing Scorer, and not be observed concurrently
// elsewhere.
type BatchStream interface {
	AdvanceBatch(streams []Stream, actions []int, liks []float64) error
}

// AdvanceBatch advances streams[i] by actions[i], writing the observed
// likelihoods into liks: through the backend's fused batch path when the
// Scorer implements BatchStream, and through the generic serial fallback
// otherwise — which is why the classical backends (n-gram, HMM) need no
// changes to ride the engine's tick batching.
func AdvanceBatch(s Scorer, streams []Stream, actions []int, liks []float64) error {
	if len(streams) != len(actions) || len(streams) != len(liks) {
		return fmt.Errorf("scorer: AdvanceBatch length mismatch streams=%d actions=%d liks=%d",
			len(streams), len(actions), len(liks))
	}
	if bs, ok := s.(BatchStream); ok && len(streams) > 1 {
		return bs.AdvanceBatch(streams, actions, liks)
	}
	for i, st := range streams {
		lik, err := st.ObserveLikelihood(actions[i])
		if err != nil {
			return err
		}
		liks[i] = lik
	}
	return nil
}
