package core

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/lm"
	"misusedetect/internal/nn"
)

// unevenClusters splits the two-behavior test corpus into six clusters
// of uneven size, so the largest-first order differs from index order.
func unevenClusters(t *testing.T) (*actionlog.Vocabulary, [][]*actionlog.Session) {
	t.Helper()
	vocab, sessions := testCorpus(t, 30)
	truth, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	var clusters [][]*actionlog.Session
	for b, sizes := range [][]int{{4, 16, 10}, {6, 18, 6}} {
		rest := truth[b]
		for _, n := range sizes {
			clusters = append(clusters, rest[:n])
			rest = rest[n:]
		}
	}
	return vocab, clusters
}

// trainAtProcs trains a detector with GOMAXPROCS set to procs, checking
// that the progress callback is never entered concurrently and that
// each cluster's epochs arrive in ascending order. It returns the
// detector and every cluster's epoch stats.
func trainAtProcs(t *testing.T, procs int, cfg Config, vocab *actionlog.Vocabulary, clusters [][]*actionlog.Session) (*Detector, [][]nn.EpochStats, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var inside atomic.Int32
	epochs := make([][]nn.EpochStats, len(clusters))
	d, err := TrainDetector(cfg, vocab, clusters, func(ci int, st nn.EpochStats) {
		if inside.Add(1) != 1 {
			t.Errorf("GOMAXPROCS %d: progress callback entered concurrently (cluster %d)", procs, ci)
		}
		defer inside.Add(-1)
		if prev := epochs[ci]; len(prev) > 0 && st.Epoch <= prev[len(prev)-1].Epoch {
			t.Errorf("GOMAXPROCS %d: cluster %d epoch %d after epoch %d", procs, ci, st.Epoch, prev[len(prev)-1].Epoch)
		}
		epochs[ci] = append(epochs[ci], st)
		runtime.Gosched() // widen the window another cluster could enter in
	})
	return d, epochs, err
}

// saved returns a model's saved bytes.
func saved(t *testing.T, m interface{ Save(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTrainDetectorParallelBitIdentical(t *testing.T) {
	vocab, clusters := unevenClusters(t)
	for _, backend := range []string{lm.BackendLSTM, baseline.BackendNGram, baseline.BackendHMM} {
		cfg := testConfig(vocab.Size())
		cfg.Backend = backend
		serial, serialEpochs, err := trainAtProcs(t, 1, cfg, vocab, clusters)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		parallel, parallelEpochs, err := trainAtProcs(t, 4, cfg, vocab, clusters)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for ci := range clusters {
			a, b := serial.Clusters()[ci], parallel.Clusters()[ci]
			if a.TrainSize != b.TrainSize {
				t.Errorf("%s: cluster %d TrainSize %d vs %d", backend, ci, a.TrainSize, b.TrainSize)
			}
			if !bytes.Equal(saved(t, a.Model), saved(t, b.Model)) {
				t.Errorf("%s: cluster %d sequence model differs between GOMAXPROCS 1 and 4", backend, ci)
			}
			if !bytes.Equal(saved(t, a.Router), saved(t, b.Router)) {
				t.Errorf("%s: cluster %d OC-SVM differs between GOMAXPROCS 1 and 4", backend, ci)
			}
			wantEpochs := 0
			if backend == lm.BackendLSTM {
				wantEpochs = cfg.LM.Trainer.Epochs
			}
			if len(serialEpochs[ci]) != wantEpochs || len(parallelEpochs[ci]) != wantEpochs {
				t.Errorf("%s: cluster %d reported %d and %d epochs, want %d",
					backend, ci, len(serialEpochs[ci]), len(parallelEpochs[ci]), wantEpochs)
				continue
			}
			for e := range serialEpochs[ci] {
				if serialEpochs[ci][e] != parallelEpochs[ci][e] {
					t.Errorf("%s: cluster %d epoch stats %+v vs %+v", backend, ci, serialEpochs[ci][e], parallelEpochs[ci][e])
				}
			}
		}
	}

	// Two clusters without a trainable session: cluster 4's many
	// one-action sessions make it the largest job, so it fails first,
	// yet the error names cluster 2, as the serial loop's does.
	short := make([]*actionlog.Session, 100)
	for i := range short {
		short[i] = &actionlog.Session{ID: "short", Actions: []string{"a0"}}
	}
	broken := append([][]*actionlog.Session(nil), clusters...)
	broken[2], broken[4] = nil, short
	cfg := testConfig(vocab.Size())
	for _, procs := range []int{1, 4} {
		_, _, err := trainAtProcs(t, procs, cfg, vocab, broken)
		if err == nil || !strings.Contains(err.Error(), "cluster 2 has no trainable sessions") {
			t.Fatalf("GOMAXPROCS %d: error = %v, want cluster 2's", procs, err)
		}
	}
}
