package lda

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"misusedetect/internal/tensor"
)

// twoTopicCorpus builds a corpus with two obvious topics: words 0-4 and
// words 5-9, with documents drawn purely from one group.
func twoTopicCorpus(n int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]int, n)
	for i := range docs {
		base := 0
		if i%2 == 1 {
			base = 5
		}
		doc := make([]int, 20)
		for j := range doc {
			doc[j] = base + rng.Intn(5)
		}
		docs[i] = doc
	}
	return docs
}

func TestFitValidation(t *testing.T) {
	docs := [][]int{{0, 1}}
	if _, err := Fit(docs, 2, Config{Topics: 0, Alpha: 1, Beta: 1, Iterations: 1}); err == nil {
		t.Fatal("zero topics must fail")
	}
	if _, err := Fit(docs, 2, Config{Topics: 1, Alpha: 0, Beta: 1, Iterations: 1}); err == nil {
		t.Fatal("zero alpha must fail")
	}
	if _, err := Fit(docs, 2, Config{Topics: 1, Alpha: 1, Beta: 1, Iterations: 0}); err == nil {
		t.Fatal("zero iterations must fail")
	}
	if _, err := Fit(docs, 0, DefaultConfig(2, 1)); err == nil {
		t.Fatal("zero vocab must fail")
	}
	if _, err := Fit([][]int{{5}}, 2, DefaultConfig(2, 1)); err == nil {
		t.Fatal("out-of-range word must fail")
	}
}

func TestFitRowsAreDistributions(t *testing.T) {
	docs := twoTopicCorpus(40, 1)
	m, err := Fit(docs, 10, DefaultConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		row := m.TopicWord.Row(k)
		if s := row.Sum(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("topic %d word dist sums to %v", k, s)
		}
		for _, p := range row {
			if p <= 0 {
				t.Fatalf("topic %d has non-positive probability", k)
			}
		}
	}
	for d := 0; d < m.DocTopic.Rows; d++ {
		if s := m.DocTopic.Row(d).Sum(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("doc %d mixture sums to %v", d, s)
		}
	}
}

func TestFitRecoversTopicStructure(t *testing.T) {
	docs := twoTopicCorpus(60, 3)
	m, err := Fit(docs, 10, DefaultConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Each topic should concentrate on one of the two word groups.
	for k := 0; k < 2; k++ {
		row := m.TopicWord.Row(k)
		var low, high float64
		for w := 0; w < 5; w++ {
			low += row[w]
		}
		for w := 5; w < 10; w++ {
			high += row[w]
		}
		if math.Max(low, high) < 0.9 {
			t.Fatalf("topic %d not concentrated: low=%.3f high=%.3f", k, low, high)
		}
	}
	// Documents should be assigned mostly to the matching topic, and
	// even/odd documents to different topics.
	top0 := m.DocTopic.Row(0).ArgMax()
	top1 := m.DocTopic.Row(1).ArgMax()
	if top0 == top1 {
		t.Fatal("pure documents from different groups share a dominant topic")
	}
	for d := 0; d < 10; d++ {
		want := top0
		if d%2 == 1 {
			want = top1
		}
		if got := m.DocTopic.Row(d).ArgMax(); got != want {
			t.Fatalf("doc %d assigned to topic %d, want %d", d, got, want)
		}
	}
}

func TestFitDeterministicBySeed(t *testing.T) {
	docs := twoTopicCorpus(20, 5)
	m1, _ := Fit(docs, 10, DefaultConfig(3, 7))
	m2, _ := Fit(docs, 10, DefaultConfig(3, 7))
	for i := range m1.TopicWord.Data {
		if m1.TopicWord.Data[i] != m2.TopicWord.Data[i] {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestFitEmptyDocuments(t *testing.T) {
	m, err := Fit([][]int{{}, {0, 1}}, 2, DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	row := m.DocTopic.Row(0)
	if math.Abs(row[0]-0.5) > 1e-9 {
		t.Fatalf("empty doc should get the uniform prior mixture, got %v", row)
	}
}

func TestFitEnsemble(t *testing.T) {
	docs := twoTopicCorpus(30, 9)
	cfg := EnsembleConfig{TopicCounts: []int{2, 3}, RunsPerCount: 2, Iterations: 50, Seed: 1}
	ens, err := FitEnsemble(docs, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Models) != 4 {
		t.Fatalf("got %d models, want 4", len(ens.Models))
	}
	if len(ens.Topics) != 2+2+3+3 {
		t.Fatalf("got %d pooled topics, want 10", len(ens.Topics))
	}
	var totalWeight float64
	for _, tp := range ens.Topics {
		if len(tp.WordDist) != 10 {
			t.Fatal("pooled topic has wrong vocab size")
		}
		totalWeight += tp.Weight
	}
	// Weights within one run sum to the document count; 4 runs -> 4*30.
	if math.Abs(totalWeight-120) > 1e-6 {
		t.Fatalf("total topic weight %v, want 120", totalWeight)
	}
}

func TestFitEnsembleValidation(t *testing.T) {
	if _, err := FitEnsemble(nil, 10, EnsembleConfig{RunsPerCount: 1}); err == nil {
		t.Fatal("empty topic counts must fail")
	}
	if _, err := FitEnsemble(nil, 10, EnsembleConfig{TopicCounts: []int{2}, RunsPerCount: 0}); err == nil {
		t.Fatal("zero runs must fail")
	}
}

func TestJensenShannonProperties(t *testing.T) {
	p := tensor.Vector{0.5, 0.5, 0}
	q := tensor.Vector{0, 0.5, 0.5}
	js, err := JensenShannon(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if js <= 0 || js > math.Ln2+1e-12 {
		t.Fatalf("JS(p,q) = %v, want in (0, ln2]", js)
	}
	self, _ := JensenShannon(p, p)
	if self != 0 {
		t.Fatalf("JS(p,p) = %v, want 0", self)
	}
	if _, err := JensenShannon(p, tensor.Vector{1}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

// Property: JS is symmetric and bounded by ln 2 for random distributions.
func TestJensenShannonSymmetryProperty(t *testing.T) {
	f := func(a, b [8]uint8) bool {
		p := make(tensor.Vector, 8)
		q := make(tensor.Vector, 8)
		var sp, sq float64
		for i := 0; i < 8; i++ {
			p[i] = float64(a[i]) + 1
			q[i] = float64(b[i]) + 1
			sp += p[i]
			sq += q[i]
		}
		p.Scale(1 / sp)
		q.Scale(1 / sq)
		pq, err1 := JensenShannon(p, q)
		qp, err2 := JensenShannon(q, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(pq-qp) < 1e-12 && pq >= 0 && pq <= math.Ln2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceMatrixSymmetricZeroDiagonal(t *testing.T) {
	docs := twoTopicCorpus(20, 11)
	ens, err := FitEnsemble(docs, 10, EnsembleConfig{TopicCounts: []int{2}, RunsPerCount: 2, Iterations: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ens.DistanceMatrix()
	if err != nil {
		t.Fatal(err)
	}
	n := len(ens.Topics)
	if d.Rows != n || d.Cols != n {
		t.Fatalf("distance matrix shape %dx%d", d.Rows, d.Cols)
	}
	for i := 0; i < n; i++ {
		if d.At(i, i) != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := 0; j < n; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatal("distance matrix not symmetric")
			}
			if d.At(i, j) < 0 {
				t.Fatal("negative distance")
			}
		}
	}
}
