package ocsvm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// gaussianBlob samples n points around the given center.
func gaussianBlob(n int, center []float64, std float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, len(center))
		for j := range x {
			x[j] = center[j] + rng.NormFloat64()*std
		}
		out[i] = x
	}
	return out
}

func TestTrainValidation(t *testing.T) {
	xs := [][]float64{{1, 2}}
	bad := []Config{
		{Nu: 0, Tolerance: 1e-3, MaxIterations: 10},
		{Nu: 1.5, Tolerance: 1e-3, MaxIterations: 10},
		{Nu: 0.5, Tolerance: 0, MaxIterations: 10},
		{Nu: 0.5, Tolerance: 1e-3, MaxIterations: 0},
		{Nu: 0.5, Gamma: -1, Tolerance: 1e-3, MaxIterations: 10},
	}
	for i, cfg := range bad {
		if _, err := Train(xs, cfg); err == nil {
			t.Errorf("config %d must fail", i)
		}
	}
	if _, err := Train(nil, DefaultConfig(1)); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := Train([][]float64{{}}, DefaultConfig(1)); err == nil {
		t.Fatal("zero-dim features must fail")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, DefaultConfig(1)); err == nil {
		t.Fatal("ragged features must fail")
	}
}

func TestSeparatesInliersFromOutliers(t *testing.T) {
	train := gaussianBlob(200, []float64{5, 5}, 0.5, 1)
	cfg := DefaultConfig(2)
	cfg.Gamma = 0.5
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inlier, err := m.Score([]float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	outlier, err := m.Score([]float64{20, -10})
	if err != nil {
		t.Fatal(err)
	}
	if inlier <= outlier {
		t.Fatalf("inlier score %v <= outlier score %v", inlier, outlier)
	}
	if inlier < 0 {
		t.Fatal("center of blob must be an inlier")
	}
	if outlier >= 0 {
		t.Fatal("distant point must be an outlier")
	}
}

func TestNuControlsTrainingOutlierFraction(t *testing.T) {
	train := gaussianBlob(300, []float64{0, 0}, 1, 3)
	for _, nu := range []float64{0.05, 0.2, 0.5} {
		cfg := DefaultConfig(4)
		cfg.Nu = nu
		cfg.Gamma = 0.5
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outliers := 0
		for _, x := range train {
			s, err := m.Score(x)
			if err != nil {
				t.Fatal(err)
			}
			if s < 0 {
				outliers++
			}
		}
		frac := float64(outliers) / float64(len(train))
		// The nu-property: the training outlier fraction is about nu
		// (upper bounded by it asymptotically; allow slack).
		if frac > nu+0.1 {
			t.Errorf("nu=%v: training outlier fraction %v too high", nu, frac)
		}
		if nu >= 0.2 && frac < nu/4 {
			t.Errorf("nu=%v: training outlier fraction %v suspiciously low", nu, frac)
		}
	}
}

func TestScoreDimensionChecked(t *testing.T) {
	m, err := Train(gaussianBlob(20, []float64{0, 0}, 1, 5), DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Score([]float64{1}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	if _, err := m.Score([]float64{1, 2, 3}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestMaxSamplesSubsampling(t *testing.T) {
	train := gaussianBlob(500, []float64{1, 1}, 0.5, 7)
	cfg := DefaultConfig(8)
	cfg.MaxSamples = 50
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.SupportVectorCount() > 50 {
		t.Fatalf("subsampled model has %d SVs", m.SupportVectorCount())
	}
	s, err := m.Score([]float64{1, 1})
	if err != nil || s < 0 {
		t.Fatalf("center should remain an inlier after subsampling: %v, %v", s, err)
	}
}

func TestSingleSampleTrains(t *testing.T) {
	m, err := Train([][]float64{{3, 4}}, DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	self, err := m.Score([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	far, _ := m.Score([]float64{100, 100})
	if self <= far {
		t.Fatalf("self score %v <= far score %v", self, far)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(gaussianBlob(50, []float64{2, 2}, 0.5, 10), DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{2.5, 1.5}
	a, _ := m.Score(probe)
	b, _ := back.Score(probe)
	if a != b {
		t.Fatalf("loaded model scores %v, want %v", b, a)
	}
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestRBFKernelProperties(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 1}
	if rbf(a, a, 0.5) != 1 {
		t.Fatal("K(x,x) must be 1")
	}
	if rbf(a, b, 0.5) != rbf(b, a, 0.5) {
		t.Fatal("kernel must be symmetric")
	}
	if rbf(a, b, 0.5) >= 1 || rbf(a, b, 0.5) <= 0 {
		t.Fatal("kernel out of (0,1)")
	}
}

func TestFeaturizerValidation(t *testing.T) {
	if _, err := NewFeaturizer(0); err == nil {
		t.Fatal("zero vocab must fail")
	}
}

func TestFeaturizerCounts(t *testing.T) {
	f, err := NewFeaturizer(4)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Session([]int{0, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 2, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("counts = %v, want %v", x, want)
		}
	}
	if _, err := f.Session([]int{9}); err == nil {
		t.Fatal("out-of-vocab must fail")
	}
}

func TestFeaturizerCorpus(t *testing.T) {
	f, _ := NewFeaturizer(3)
	xs, err := f.Corpus([][]int{{0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 2 || xs[1][2] != 1 {
		t.Fatalf("Corpus = %v", xs)
	}
	if _, err := f.Corpus([][]int{{7}}); err == nil {
		t.Fatal("bad corpus must fail")
	}
}

func TestPrefixStreamMatchesBatch(t *testing.T) {
	f, _ := NewFeaturizer(4)
	session := []int{0, 3, 3, 1, 0}
	stream := f.Stream()
	var first []float64
	for i, a := range session {
		got, err := stream.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := f.Session(session[:i+1])
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("prefix %d: stream %v, batch %v", i, got, want)
			}
		}
		// The returned vector is stream-owned scratch, reused between
		// calls so the per-action path allocates nothing: successive
		// observations alias one buffer.
		if first == nil {
			first = got
		} else if &first[0] != &got[0] {
			t.Fatal("stream must reuse its output buffer")
		}
	}
	if got := stream.Support(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("support = %v, want [0 3 1] (first-seen order)", got)
	}
	if _, err := stream.Observe(9); err == nil {
		t.Fatal("bad action must fail")
	}
}

// The length-sensitivity that drives the paper's Figure 6: with count
// features, prefixes far longer than the training sessions score lower.
func TestCountFeaturesAreLengthSensitive(t *testing.T) {
	f, _ := NewFeaturizer(5)
	rng := rand.New(rand.NewSource(12))
	var train [][]float64
	for i := 0; i < 150; i++ {
		n := 10 + rng.Intn(10) // typical length ~15
		s := make([]int, n)
		for j := range s {
			s[j] = rng.Intn(5)
		}
		x, err := f.Session(s)
		if err != nil {
			t.Fatal(err)
		}
		train = append(train, x)
	}
	cfg := DefaultConfig(13)
	cfg.Gamma = 0.05
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	short := make([]int, 15)
	long := make([]int, 200)
	for i := range short {
		short[i] = rng.Intn(5)
	}
	for i := range long {
		long[i] = rng.Intn(5)
	}
	xs, _ := f.Session(short)
	xl, _ := f.Session(long)
	ss, _ := m.Score(xs)
	sl, _ := m.Score(xl)
	if ss <= sl {
		t.Fatalf("typical-length score %v <= long-session score %v", ss, sl)
	}
}

// Property: the RBF kernel depends only on differences, so training on
// translated data and scoring a translated probe gives identical scores.
func TestTranslationInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	train := gaussianBlob(60, []float64{1, 2}, 0.7, 22)
	shift := []float64{5.5, -3.25}
	shifted := make([][]float64, len(train))
	for i, x := range train {
		shifted[i] = []float64{x[0] + shift[0], x[1] + shift[1]}
	}
	cfg := DefaultConfig(23)
	cfg.Gamma = 0.8
	m1, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(shifted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		probe := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		s1, err := m1.Score(probe)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := m2.Score([]float64{probe[0] + shift[0], probe[1] + shift[1]})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s1-s2) > 1e-9 {
			t.Fatalf("translation changed score: %v vs %v", s1, s2)
		}
	}
}

// TestScoreSparseMatchesDense pins the sparse routing-path kernel
// against the dense one: on sparse vectors (and after a save/load round
// trip, which must rebuild the precomputed norms) the two scores agree
// to floating-point noise, and unlisted zero coordinates are truly
// ignored.
func TestScoreSparseMatchesDense(t *testing.T) {
	const dim = 40
	train := gaussianBlob(60, make([]float64, dim), 0.3, 7)
	m, err := Train(train, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, dim)
		var nonzero []int
		for k := 0; k < 1+rng.Intn(8); k++ {
			i := rng.Intn(dim)
			if x[i] == 0 {
				nonzero = append(nonzero, i)
			}
			x[i] = rng.Float64()
		}
		for _, model := range []*Model{m, loaded} {
			dense, err := model.Score(x)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := model.ScoreSparse(x, nonzero)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(dense-sparse) > 1e-9 {
				t.Fatalf("trial %d: dense %v vs sparse %v", trial, dense, sparse)
			}
		}
	}
	if _, err := m.ScoreSparse(make([]float64, dim+1), nil); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	// An empty support is the zero vector.
	sparse, err := m.ScoreSparse(make([]float64, dim), nil)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := m.Score(make([]float64, dim))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dense-sparse) > 1e-9 {
		t.Fatalf("zero vector: dense %v vs sparse %v", dense, sparse)
	}
}
