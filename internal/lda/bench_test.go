package lda

import (
	"math/rand"
	"testing"
)

// benchCorpus builds session-like documents: 500 docs, ~15 words each,
// over a 300-word vocabulary with 13 latent topics.
func benchCorpus(seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]int, 500)
	for i := range docs {
		topic := rng.Intn(13)
		base := topic * 20
		n := 8 + rng.Intn(15)
		doc := make([]int, n)
		for j := range doc {
			doc[j] = (base + rng.Intn(25)) % 300
		}
		docs[i] = doc
	}
	return docs
}

// BenchmarkGibbsFit measures one 13-topic LDA run with a short chain,
// the unit of the paper's ensemble step.
func BenchmarkGibbsFit(b *testing.B) {
	docs := benchCorpus(1)
	cfg := DefaultConfig(13, 2)
	cfg.Iterations = 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(docs, 300, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceMatrix measures the topic-topic Jensen-Shannon matrix
// over a pooled ensemble (the viz/expert input).
func BenchmarkDistanceMatrix(b *testing.B) {
	docs := benchCorpus(5)
	ens, err := FitEnsemble(docs, 300, EnsembleConfig{
		TopicCounts: []int{10, 13}, RunsPerCount: 1, Iterations: 15, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ens.DistanceMatrix(); err != nil {
			b.Fatal(err)
		}
	}
}
