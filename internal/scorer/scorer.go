// Package scorer defines the backend-agnostic contract between sequence
// models and the serving stack. Every model family in the repository —
// the paper's LSTM language models (internal/lm), the interpolated
// n-gram model, and the discrete HMM (internal/baseline) — implements
// Scorer, so the detector, the session monitor, and the sharded engine
// in internal/core can score sessions with any backend per cluster.
//
// The contract has two halves:
//
//   - Stream is the online half: one encoded action in, the likelihood
//     the model assigned to it plus the predictive distribution over the
//     next action out. Streams are single-goroutine state machines; a
//     session keeps one per cluster that has led its routing vote, and
//     only the winner's past the vote.
//   - Scorer is the model half: identity (Backend, VocabSize), stream
//     construction, and serialization into the backend-tagged envelope
//     of this package (Encode/Decode), which is what makes saved models
//     self-describing on disk.
//
// Offline scoring has one path for every backend: ScoreCorpus (and its
// one-session case ScoreStream) replays sessions through fresh streams,
// so the session measures are exactly what serving observes.
package scorer

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"misusedetect/internal/tensor"
)

// Stream scores one session incrementally, one action at a time.
//
// Observe consumes the next encoded action and returns the probability
// the model assigned to it before consuming it (-1 for the first action
// of a session, which has no prediction) and the model's distribution
// over the following action. Implementations may reuse the returned
// vector as a scratch buffer: it is only valid until the next Observe.
// A Stream must not be shared across goroutines.
type Stream interface {
	Observe(action int) (likelihood float64, dist tensor.Vector, err error)
}

// LikelihoodStream is an optional Stream extension for backends whose
// full predictive distribution costs more than the observed-action
// likelihood alone (the n-gram and HMM adapters). ObserveLikelihood
// advances the stream exactly like Observe — the two may be mixed
// freely on one stream — but skips computing the distribution.
type LikelihoodStream interface {
	ObserveLikelihood(action int) (float64, error)
}

// ObserveLikelihood advances st one action through the cheapest path
// the backend offers: the likelihood-only fast path when implemented,
// plain Observe otherwise. The engine's monitor scores every cluster
// stream through this on every event, so for classical backends it is
// the serving hot path.
func ObserveLikelihood(st Stream, action int) (float64, error) {
	if ls, ok := st.(LikelihoodStream); ok {
		return ls.ObserveLikelihood(action)
	}
	lik, _, err := st.Observe(action)
	return lik, err
}

// Score is the set of session-level normality measures shared by every
// backend: the paper's average likelihood (high = normal), Kim et al.'s
// average cross-entropy loss (low = normal), perplexity, argmax
// prediction accuracy, and the number of scored positions.
type Score struct {
	// AvgLikelihood is the mean probability of the observed actions.
	AvgLikelihood float64
	// AvgLoss is the mean cross-entropy per action.
	AvgLoss float64
	// Perplexity is exp(AvgLoss).
	Perplexity float64
	// Accuracy is the fraction of actions that were the model's argmax
	// prediction.
	Accuracy float64
	// Steps is the number of scored positions: len(session) - 1 per
	// scored session.
	Steps int
}

// Scorer is a trained sequence model over a fixed action vocabulary,
// usable as the per-cluster model of the detection pipeline.
type Scorer interface {
	// Backend returns the registered backend tag ("lstm", "ngram", ...).
	Backend() string
	// VocabSize returns the action-vocabulary size the model was
	// trained on.
	VocabSize() int
	// NewStream returns a fresh incremental scorer for one session.
	NewStream() Stream
	// Save writes the model payload to w (without the envelope; use
	// Encode to write a self-describing file).
	Save(w io.Writer) error
}

// ScoreStream derives the session-level measures of one session by
// replaying it through a fresh stream: ScoreCorpus of a single session,
// which must have at least 2 actions.
func ScoreStream(s Scorer, session []int) (Score, error) {
	if len(session) < 2 {
		return Score{}, fmt.Errorf("scorer: session must have >= 2 actions, got %d", len(session))
	}
	return ScoreCorpus(s, [][]int{session})
}

// ScoreCorpus replays every session with at least 2 actions through a
// fresh stream and pools the measures over all their scored positions,
// so every predicted action counts equally (the pooled accuracy and loss
// of the paper's Figures 4, 5 and 10). Position 0 of each session is
// unscored, matching the paper's "no observed and predicted part" rule.
// It fails when no session can be scored.
func ScoreCorpus(s Scorer, sessions [][]int) (Score, error) {
	var likeSum, lossSum float64
	correct, steps := 0, 0
	for _, session := range sessions {
		if len(session) < 2 {
			continue
		}
		st := s.NewStream()
		_, dist, err := st.Observe(session[0])
		if err != nil {
			return Score{}, fmt.Errorf("scorer: score session: %w", err)
		}
		// The argmax must be read before the next Observe invalidates dist.
		predicted := argMaxOrNeg(dist)
		for _, a := range session[1:] {
			lik, dist, err := st.Observe(a)
			if err != nil {
				return Score{}, fmt.Errorf("scorer: score session: %w", err)
			}
			likeSum += lik
			if lik < 1e-300 {
				lik = 1e-300
			}
			lossSum += -math.Log(lik)
			if predicted == a {
				correct++
			}
			predicted = argMaxOrNeg(dist)
		}
		steps += len(session) - 1
	}
	if steps == 0 {
		return Score{}, fmt.Errorf("scorer: no session has >= 2 actions")
	}
	avgLoss := lossSum / float64(steps)
	return Score{
		AvgLikelihood: likeSum / float64(steps),
		AvgLoss:       avgLoss,
		Perplexity:    math.Exp(avgLoss),
		Accuracy:      float64(correct) / float64(steps),
		Steps:         steps,
	}, nil
}

func argMaxOrNeg(v tensor.Vector) int {
	if len(v) == 0 {
		return -1
	}
	return v.ArgMax()
}

// registry maps backend tags to payload loaders. Backends register in
// their package init, so importing a backend package is what makes its
// saved models loadable.
var (
	registryMu sync.RWMutex
	registry   = map[string]func(io.Reader) (Scorer, error){}
)

// Register installs the payload loader for a backend tag. It panics on
// an empty tag or a duplicate registration: both are programmer errors
// at package-init time.
func Register(backend string, load func(io.Reader) (Scorer, error)) {
	if backend == "" || load == nil {
		panic("scorer: Register with empty backend tag or nil loader")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[backend]; dup {
		panic(fmt.Sprintf("scorer: backend %q registered twice", backend))
	}
	registry[backend] = load
}

// Backends returns the registered backend tags, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for b := range registry {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// lookup returns the loader for a backend tag.
func lookup(backend string) (func(io.Reader) (Scorer, error), bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	load, ok := registry[backend]
	return load, ok
}
