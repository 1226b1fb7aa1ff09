package core

import (
	"path/filepath"
	"testing"

	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// checkLMHandle fails unless every cluster's LM is non-nil exactly for
// the LSTM backend and is then the cluster's Model itself.
func checkLMHandle(t *testing.T, stage string, d *Detector) {
	t.Helper()
	for ci, c := range d.Clusters() {
		if lstm := d.Backend() == nn.BackendLSTM; (c.LM != nil) != lstm {
			t.Fatalf("%s %s: cluster %d has LM %v, want one only for %s", d.Backend(), stage, ci, c.LM != nil, nn.BackendLSTM)
		}
		if c.LM != nil && scorer.Scorer(c.LM) != c.Model {
			t.Fatalf("%s %s: cluster %d LM is not its Model", d.Backend(), stage, ci)
		}
	}
}

// TestClusterModelLMHandle follows each backend of the table through
// training, a save and load, and a retrain (cluster 0 retrained,
// cluster 1 reused), checking the typed LSTM handle at every stage.
func TestClusterModelLMHandle(t *testing.T) {
	vocab, sessions := testCorpus(t, 12)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		cfg := testConfig(vocab.Size())
		cfg.Backend = b.tag
		cfg.LM.Trainer.Epochs = 2
		det, err := TrainDetector(cfg, vocab, clusters, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.tag, err)
		}
		checkLMHandle(t, "trained", det)

		dir := filepath.Join(t.TempDir(), "model")
		if err := det.Save(dir); err != nil {
			t.Fatalf("%s: %v", b.tag, err)
		}
		loaded, err := LoadDetector(dir)
		if err != nil {
			t.Fatalf("%s: %v", b.tag, err)
		}
		checkLMHandle(t, "loaded", loaded)

		retrained, stats, err := RetrainDetector(det, cfg, vocab, encodeGroups(t, vocab, clusters[0], nil), 2)
		if err != nil {
			t.Fatalf("%s: %v", b.tag, err)
		}
		if len(stats.Retrained) != 1 || len(stats.Reused) != 1 {
			t.Fatalf("%s: retrain stats %+v, want one cluster retrained and one reused", b.tag, stats)
		}
		checkLMHandle(t, "retrained", retrained)
	}
}
