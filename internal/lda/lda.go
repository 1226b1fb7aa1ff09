// Package lda implements Latent Dirichlet Allocation by collapsed Gibbs
// sampling, plus the LDA-ensemble machinery of the paper's informed
// clustering step: each session is treated as a document whose words are
// actions, LDA is run multiple times with different topic counts, and the
// resulting topic-action and document-topic matrices feed the visual
// interface (package viz) and the simulated expert (package expert).
package lda

import (
	"fmt"
	"math/rand"

	"misusedetect/internal/tensor"
)

// Config holds the hyperparameters of one LDA run.
type Config struct {
	// Topics is the number of latent topics K.
	Topics int
	// Alpha is the symmetric Dirichlet prior on document-topic mixtures.
	Alpha float64
	// Beta is the symmetric Dirichlet prior on topic-word distributions.
	Beta float64
	// Iterations is the number of Gibbs sweeps over the corpus.
	Iterations int
	// Seed makes the sampler deterministic.
	Seed int64
}

// DefaultConfig returns a standard configuration for the given topic
// count: alpha = min(50/K, 0.5), beta = 0.01, 200 sweeps. The 50/K
// heuristic is capped at 0.5 because session-documents are short (~15
// actions): a large symmetric prior would swamp the counts and flatten
// every document mixture toward uniform.
func DefaultConfig(topics int, seed int64) Config {
	alpha := 50 / float64(topics)
	if alpha > 0.5 {
		alpha = 0.5
	}
	return Config{
		Topics:     topics,
		Alpha:      alpha,
		Beta:       0.01,
		Iterations: 200,
		Seed:       seed,
	}
}

func (c *Config) validate() error {
	if c.Topics < 1 {
		return fmt.Errorf("lda: Topics must be >= 1, got %d", c.Topics)
	}
	if c.Alpha <= 0 || c.Beta <= 0 {
		return fmt.Errorf("lda: priors must be positive, got alpha=%v beta=%v", c.Alpha, c.Beta)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("lda: Iterations must be >= 1, got %d", c.Iterations)
	}
	return nil
}

// Model is a fitted LDA model.
type Model struct {
	// Config echoes the hyperparameters the model was fitted with.
	Config Config
	// VocabSize is the number of distinct words (actions) d.
	VocabSize int
	// TopicWord is the K x d topic-action matrix: row k is the word
	// distribution of topic k (rows sum to 1).
	TopicWord *tensor.Matrix
	// DocTopic is the m x K document-topic matrix: row i is the topic
	// mixture of document i (rows sum to 1).
	DocTopic *tensor.Matrix
}

// Fit runs collapsed Gibbs sampling on the corpus. Each document is a
// slice of word indices in [0, vocabSize). Empty documents are allowed and
// receive the uniform prior mixture.
func Fit(docs [][]int, vocabSize int, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if vocabSize < 1 {
		return nil, fmt.Errorf("lda: vocabSize must be >= 1, got %d", vocabSize)
	}
	for di, doc := range docs {
		for wi, w := range doc {
			if w < 0 || w >= vocabSize {
				return nil, fmt.Errorf("lda: doc %d word %d index %d outside [0,%d)", di, wi, w, vocabSize)
			}
		}
	}

	k := cfg.Topics
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Count tables of the collapsed sampler.
	docTopicCount := tensor.NewMatrix(len(docs), k)  // n_{d,k}
	topicWordCount := tensor.NewMatrix(k, vocabSize) // n_{k,w}
	topicCount := tensor.NewVector(k)                // n_k
	assignments := make([][]int, len(docs))

	// Random initialization.
	for di, doc := range docs {
		assignments[di] = make([]int, len(doc))
		for wi, w := range doc {
			z := rng.Intn(k)
			assignments[di][wi] = z
			docTopicCount.Data[di*k+z]++
			topicWordCount.Data[z*vocabSize+w]++
			topicCount[z]++
		}
	}

	probs := tensor.NewVector(k)
	betaSum := cfg.Beta * float64(vocabSize)
	for it := 0; it < cfg.Iterations; it++ {
		for di, doc := range docs {
			dtRow := docTopicCount.Data[di*k : (di+1)*k]
			for wi, w := range doc {
				z := assignments[di][wi]
				// Remove the current assignment from the counts.
				dtRow[z]--
				topicWordCount.Data[z*vocabSize+w]--
				topicCount[z]--

				// Full conditional p(z | rest).
				var total float64
				for t := 0; t < k; t++ {
					p := (dtRow[t] + cfg.Alpha) *
						(topicWordCount.Data[t*vocabSize+w] + cfg.Beta) /
						(topicCount[t] + betaSum)
					probs[t] = p
					total += p
				}
				// Sample the new topic.
				x := rng.Float64() * total
				nz := k - 1
				for t := 0; t < k; t++ {
					x -= probs[t]
					if x < 0 {
						nz = t
						break
					}
				}
				assignments[di][wi] = nz
				dtRow[nz]++
				topicWordCount.Data[nz*vocabSize+w]++
				topicCount[nz]++
			}
		}
	}

	return finalize(docs, docTopicCount, topicWordCount, vocabSize, cfg), nil
}

// finalize converts count tables into the smoothed probability matrices.
func finalize(docs [][]int, docTopicCount, topicWordCount *tensor.Matrix, vocabSize int, cfg Config) *Model {
	k := cfg.Topics
	m := &Model{
		Config:    cfg,
		VocabSize: vocabSize,
		TopicWord: tensor.NewMatrix(k, vocabSize),
		DocTopic:  tensor.NewMatrix(len(docs), k),
	}
	betaSum := cfg.Beta * float64(vocabSize)
	for t := 0; t < k; t++ {
		var nt float64
		row := topicWordCount.Row(t)
		for _, c := range row {
			nt += c
		}
		out := m.TopicWord.Row(t)
		for w, c := range row {
			out[w] = (c + cfg.Beta) / (nt + betaSum)
		}
	}
	alphaSum := cfg.Alpha * float64(k)
	for di := range docs {
		n := float64(len(docs[di]))
		row := docTopicCount.Row(di)
		out := m.DocTopic.Row(di)
		for t, c := range row {
			out[t] = (c + cfg.Alpha) / (n + alphaSum)
		}
	}
	return m
}
