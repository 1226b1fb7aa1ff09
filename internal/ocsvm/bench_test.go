package ocsvm

import (
	"math/rand"
	"testing"
)

// benchTrainingSet mimics one behavior cluster: bag-of-action count
// vectors over a 300-action vocabulary, ~15 actions per session spread
// over a 20-action active subset.
func benchTrainingSet(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, 300)
		length := 8 + rng.Intn(15)
		for j := 0; j < length; j++ {
			x[rng.Intn(20)]++
		}
		out[i] = x
	}
	return out
}

// BenchmarkTrainClusterSized measures fitting one cluster's OC-SVM at a
// realistic cluster size.
func BenchmarkTrainClusterSized(b *testing.B) {
	xs := benchTrainingSet(500, 1)
	cfg := DefaultConfig(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(xs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScore measures one dense decision value.
func BenchmarkScore(b *testing.B) {
	xs := benchTrainingSet(500, 3)
	m, err := Train(xs, DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	probe := xs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Score(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterObserve measures one step of the online cluster vote:
// one action folded into the route state of 13 cluster-sized OC-SVMs,
// every cluster scored, over 15-action vote windows.
func BenchmarkRouterObserve(b *testing.B) {
	models := make([]*Model, 13)
	for c := range models {
		m, err := Train(benchTrainingSet(200, int64(10+c)), DefaultConfig(int64(c)))
		if err != nil {
			b.Fatal(err)
		}
		models[c] = m
	}
	r, err := NewRouter(models, 15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	session := make([]int, 15)
	prior := make([]int, 15)
	for i := range session {
		session[i] = rng.Intn(20)
		for _, a := range session[:i] {
			if a == session[i] {
				prior[i]++
			}
		}
	}
	dist := r.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % len(session)
		if t == 0 {
			copy(dist, r.norm)
		}
		if _, err := r.Observe(dist, session[t], prior[t]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturizeSession measures the bag-of-actions featurizer.
func BenchmarkFeaturizeSession(b *testing.B) {
	f, err := NewFeaturizer(300)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	session := make([]int, 15)
	for i := range session {
		session[i] = rng.Intn(300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Session(session); err != nil {
			b.Fatal(err)
		}
	}
}
