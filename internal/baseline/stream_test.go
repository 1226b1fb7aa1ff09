package baseline

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/scorer"
)

// TestNGramStreamMatchesBatch pins the streaming adapter to the batch
// reference: the stream's likelihood at position i must equal
// Prob(session[:i], session[i]) bit for bit.
func TestNGramStreamMatchesBatch(t *testing.T) {
	sessions := cycleSessions(12, 20, 6)
	m, err := TrainNGram(sessions, 6)
	if err != nil {
		t.Fatal(err)
	}
	session := []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 0, 5, 4}
	st := m.NewStream()
	for i, a := range session {
		lik, dist, err := st.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if lik != -1 {
				t.Fatalf("first action likelihood = %v, want -1", lik)
			}
		} else if want, err := m.Prob(session[:i], a); err != nil {
			t.Fatal(err)
		} else if math.Float64bits(lik) != math.Float64bits(want) {
			t.Fatalf("position %d: stream %v, Prob %v", i, lik, want)
		}
		var sum float64
		for _, p := range dist {
			if p < 0 {
				t.Fatalf("position %d: negative probability %v", i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("position %d: distribution sums to %v", i, sum)
		}
	}
}

// TestNGramStreamDistMatchesProb checks the next-action distribution
// agrees with Prob bit for bit for every action, including contexts
// longer than the model order (the stream window must behave like the
// full prefix).
func TestNGramStreamDistMatchesProb(t *testing.T) {
	sessions := append(cycleSessions(10, 15, 5), []int{0, 2, 4, 1, 3, 0, 0, 2})
	m, err := TrainNGram(sessions, 5)
	if err != nil {
		t.Fatal(err)
	}
	session := []int{0, 1, 2, 3, 4, 0, 2, 4, 1, 1}
	st := m.NewStream()
	for i, a := range session {
		_, dist, err := st.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		for next := 0; next < 5; next++ {
			want, err := m.Prob(session[:i+1], next)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(dist[next]) != math.Float64bits(want) {
				t.Fatalf("after %d actions, P(%d): stream %v, Prob %v", i+1, next, dist[next], want)
			}
		}
	}
}

func TestNGramStreamValidation(t *testing.T) {
	m, err := TrainNGram(cycleSessions(4, 8, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewStream()
	if _, _, err := st.Observe(-1); err == nil {
		t.Fatal("negative action must fail")
	}
	if _, _, err := st.Observe(4); err == nil {
		t.Fatal("out-of-vocab action must fail")
	}
}

// TestHMMStreamMatchesForward pins the streaming forward step to the
// batch scaled-forward algorithm: the per-step likelihoods must be the
// scale factors, and their log-sum the batch log-likelihood.
func TestHMMStreamMatchesForward(t *testing.T) {
	sessions := cycleSessions(10, 18, 5)
	m, err := TrainHMM(sessions, 5, HMMConfig{States: 4, Iterations: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	session := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 0}
	_, scales, logLik := m.forwardScaled(session)
	st := m.NewStream()
	var got float64
	for i, a := range session {
		lik, dist, err := st.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if lik != -1 {
				t.Fatalf("first action likelihood = %v, want -1", lik)
			}
			got += math.Log(scales[0])
		} else {
			if math.Abs(lik-scales[i]) > 1e-9 {
				t.Fatalf("position %d: stream %v, forward scale %v", i, lik, scales[i])
			}
			got += math.Log(lik)
		}
		var sum float64
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("position %d: predictive distribution sums to %v", i, sum)
		}
	}
	if math.Abs(got-logLik) > 1e-9 {
		t.Fatalf("stream log-likelihood %v, batch %v", got, logLik)
	}
}

func TestHMMStreamValidation(t *testing.T) {
	m, err := TrainHMM(cycleSessions(4, 8, 4), 4, HMMConfig{States: 2, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewStream()
	if _, _, err := st.Observe(9); err == nil {
		t.Fatal("out-of-vocab action must fail")
	}
}

// TestLikelihoodFastPathMatchesObserve pins the likelihood-only fast
// path to the full Observe for both classical backends, including mixed
// calls on one stream. It also pins the lazy predictive buffer: a new
// stream does not hold the vocab-sized distribution, a stream
// that first calls Observe after k likelihood-only steps predicts
// exactly what a stream that called Observe throughout does, and once
// built the buffer is reused without allocating.
func TestLikelihoodFastPathMatchesObserve(t *testing.T) {
	sessions := cycleSessions(10, 16, 6)
	session := []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 0, 5, 4}
	ng, err := TrainNGram(sessions, 6)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := TrainHMM(sessions, 6, HMMConfig{States: 3, Iterations: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []scorer.Scorer{ng, hm} {
		full := m.NewStream()
		fast := m.NewStream()
		mixed := m.NewStream()
		fresh := m.NewStream().MemSize()
		dists := make([][]float64, len(session))
		for i, a := range session {
			want, dist, err := full.Observe(a)
			if err != nil {
				t.Fatal(err)
			}
			dists[i] = append([]float64(nil), dist...)
			got, err := fast.ObserveLikelihood(a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s position %d: fast path %v, Observe %v", m.Backend(), i, got, want)
			}
			// Alternate entry points on one stream: the advance must be
			// identical either way.
			var mixedLik float64
			if i%2 == 0 {
				mixedLik, _, err = mixed.Observe(a)
			} else {
				mixedLik, err = mixed.ObserveLikelihood(a)
			}
			if err != nil {
				t.Fatal(err)
			}
			if mixedLik != want {
				t.Fatalf("%s position %d: mixed calls %v, Observe %v", m.Backend(), i, mixedLik, want)
			}
		}
		if _, err := fast.ObserveLikelihood(99); err == nil {
			t.Fatalf("%s: out-of-vocab action must fail on the fast path", m.Backend())
		}

		// full holds the predictive buffer; a new stream must not.
		distBytes := 8 * m.VocabSize()
		if built := full.MemSize(); built-fresh < distBytes {
			t.Fatalf("%s: new stream accounts %d B, within %d B of one holding the %d B predictive buffer",
				m.Backend(), fresh, built-fresh, distBytes)
		}

		for k := range session {
			lazy := m.NewStream()
			for _, a := range session[:k] {
				if _, err := lazy.ObserveLikelihood(a); err != nil {
					t.Fatal(err)
				}
			}
			_, dist, err := lazy.Observe(session[k])
			if err != nil {
				t.Fatal(err)
			}
			for o := range dists[k] {
				if math.Float64bits(dist[o]) != math.Float64bits(dists[k][o]) {
					t.Fatalf("%s: first Observe after %d likelihood-only steps: P(%d) = %v, want %v",
						m.Backend(), k, o, dist[o], dists[k][o])
				}
			}
			next := k
			if allocs := testing.AllocsPerRun(20, func() {
				next = (next + 1) % len(session)
				if _, _, err := lazy.Observe(session[next]); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("%s: Observe after the buffer is built allocates %.1f times per call", m.Backend(), allocs)
			}
		}
	}
}

// TestLoadHMMRefusesVocabAboveBound: an HMM file that is consistent in
// every other respect is refused once its vocabulary passes the bound
// every model loader keeps.
func TestLoadHMMRefusesVocabAboveBound(t *testing.T) {
	for _, vocab := range []int{actionlog.MaxVocabSize, actionlog.MaxVocabSize + 1} {
		emit := make([]float64, vocab)
		emit[0] = 1
		var buf bytes.Buffer
		s := serializedHMM{States: 1, Vocab: vocab, Initial: []float64{1}, Trans: []float64{1}, Emit: emit}
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			t.Fatal(err)
		}
		_, err := LoadHMM(&buf)
		if above := vocab > actionlog.MaxVocabSize; above != (err != nil) {
			t.Fatalf("vocab %d: err = %v", vocab, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadNGram(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("ngram garbage must fail")
	}
	if _, err := LoadHMM(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("hmm garbage must fail")
	}
}
