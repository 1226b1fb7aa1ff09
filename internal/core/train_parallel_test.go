package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
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
	for _, backend := range []string{nn.BackendLSTM, baseline.BackendNGram, baseline.BackendHMM} {
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
			if backend == nn.BackendLSTM {
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

// retrainAtProcs retrains old with GOMAXPROCS set to procs.
func retrainAtProcs(procs int, old *Detector, cfg Config, vocab *actionlog.Vocabulary, groups [][]EncodedSession) (*Detector, RetrainStats, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return RetrainDetector(old, cfg, vocab, groups, 2)
}

// TestRetrainDetectorParallelBitIdentical retrains an LSTM detector of
// six uneven clusters at GOMAXPROCS 1 and 4, with fresh sessions for
// four clusters and none for two: under the old vocabulary the two
// starved clusters are reused, under a grown one they are distilled.
// Both runs must report the same clusters in cluster order and train
// the same bits. With two clusters holding an action outside the
// vocabulary, the error must name the lower one, although the other is
// the largest job and fails first.
func TestRetrainDetectorParallelBitIdentical(t *testing.T) {
	vocab, clusters := unevenClusters(t)
	old, _, err := trainAtProcs(t, 2, testConfig(vocab.Size()), vocab, clusters)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := actionlog.NewVocabulary(append(vocab.Actions(), "zz-new"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*actionlog.Vocabulary{vocab, grown} {
		cfg := testConfig(v.Size())
		fresh := encodeGroups(t, v, clusters[0], nil, clusters[2], clusters[3], nil, clusters[5])
		serial, serialStats, err := retrainAtProcs(1, old, cfg, v, fresh)
		if err != nil {
			t.Fatalf("vocabulary %d: %v", v.Size(), err)
		}
		parallel, parallelStats, err := retrainAtProcs(4, old, cfg, v, fresh)
		if err != nil {
			t.Fatalf("vocabulary %d: %v", v.Size(), err)
		}
		want := RetrainStats{Retrained: []int{0, 2, 3, 5}, Reused: []int{1, 4}}
		if v != vocab {
			want = RetrainStats{Retrained: []int{0, 2, 3, 5}, Distilled: []int{1, 4}}
		}
		for _, got := range []RetrainStats{serialStats, parallelStats} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("vocabulary %d: stats %+v, want %+v", v.Size(), got, want)
			}
		}
		for ci := range clusters {
			a, b := serial.Clusters()[ci], parallel.Clusters()[ci]
			if a.TrainSize != b.TrainSize {
				t.Errorf("vocabulary %d: cluster %d TrainSize %d vs %d", v.Size(), ci, a.TrainSize, b.TrainSize)
			}
			if !bytes.Equal(saved(t, a.Model), saved(t, b.Model)) {
				t.Errorf("vocabulary %d: cluster %d sequence model differs between GOMAXPROCS 1 and 4", v.Size(), ci)
			}
			if !bytes.Equal(saved(t, a.Router), saved(t, b.Router)) {
				t.Errorf("vocabulary %d: cluster %d OC-SVM differs between GOMAXPROCS 1 and 4", v.Size(), ci)
			}
		}
	}

	fresh := encodeGroups(t, vocab, clusters...)
	bad := func(n int) EncodedSession {
		actions := make([]int, n)
		actions[n/2] = vocab.Size()
		return EncodedSession{ID: "bad", Actions: actions}
	}
	fresh[2] = append(fresh[2], bad(10))
	fresh[4] = append(fresh[4], bad(5000))
	for _, procs := range []int{1, 4} {
		_, _, err := retrainAtProcs(procs, old, testConfig(vocab.Size()), vocab, fresh)
		if err == nil || !strings.Contains(err.Error(), "cluster 2") {
			t.Fatalf("GOMAXPROCS %d: error = %v, want cluster 2's", procs, err)
		}
	}
}

// TestSaveParallelByteIdentical saves one LSTM detector of six clusters
// at GOMAXPROCS 1 and 2: the two directories must hold the same files
// with the same bytes, the manifest and its checksums included.
func TestSaveParallelByteIdentical(t *testing.T) {
	vocab, clusters := unevenClusters(t)
	det, _, err := trainAtProcs(t, 2, testConfig(vocab.Size()), vocab, clusters)
	if err != nil {
		t.Fatal(err)
	}
	var trees [2]map[string][]byte
	for i, procs := range []int{1, 2} {
		dir := filepath.Join(t.TempDir(), "model")
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if err := det.Save(dir); err != nil {
				t.Fatal(err)
			}
		}()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = make(map[string][]byte, len(entries))
		for _, e := range entries {
			if trees[i][e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(trees[0]) != 1+2*len(clusters) || len(trees[0]) != len(trees[1]) {
		t.Fatalf("saved %d and %d files, want %d", len(trees[0]), len(trees[1]), 1+2*len(clusters))
	}
	for name, data := range trees[0] {
		if !bytes.Equal(data, trees[1][name]) {
			t.Errorf("%s differs between saves at GOMAXPROCS 1 and 2", name)
		}
	}
}
