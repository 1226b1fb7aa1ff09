package lm

import (
	"math/rand"
	"testing"

	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// BenchmarkScoreStreamAvgSession measures scoring one average-length
// session (15 actions) at the paper's model size (256 LSTM units, 300
// actions) through scorer.ScoreStream, the offline scoring path.
func BenchmarkScoreStreamAvgSession(b *testing.B) {
	net, err := nn.NewLanguageNetwork(nn.PaperNetworkConfig(300, 1))
	if err != nil {
		b.Fatal(err)
	}
	m := New(net)
	rng := rand.New(rand.NewSource(2))
	session := make([]int, 15)
	for i := range session {
		session[i] = rng.Intn(300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scorer.ScoreStream(m, session); err != nil {
			b.Fatal(err)
		}
	}
}
