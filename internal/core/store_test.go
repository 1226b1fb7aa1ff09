package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misusedetect/internal/baseline"
	"misusedetect/internal/logsim"
)

func TestTrainDetectorClassicalBackends(t *testing.T) {
	vocab, sessions := testCorpus(t, 30)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	random, err := logsim.RandomSessions(vocab, 1, 8, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{baseline.BackendNGram, baseline.BackendHMM} {
		cfg := testConfig(vocab.Size())
		cfg.Backend = backend
		d, err := TrainDetector(cfg, vocab, clusters, nil)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if d.Backend() != backend {
			t.Fatalf("backend = %q, want %q", d.Backend(), backend)
		}
		for i, c := range d.Clusters() {
			if c.Model == nil || c.Model.Backend() != backend {
				t.Fatalf("%s: cluster %d model backend wrong", backend, i)
			}
			if c.LM != nil {
				t.Fatalf("%s: cluster %d has an LSTM handle", backend, i)
			}
		}
		normal, err := d.ScoreSession(sessions[0])
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		rnd, err := d.ScoreSession(random[0])
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if normal.Score.AvgLikelihood <= rnd.Score.AvgLikelihood {
			t.Fatalf("%s: normal likelihood %v <= random %v",
				backend, normal.Score.AvgLikelihood, rnd.Score.AvgLikelihood)
		}
		// The online monitor must run on the classical stream too.
		mon, err := d.NewSessionMonitor(DefaultMonitorConfig())
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for _, a := range sessions[0].Actions {
			tok := d.Token(a)
			if tok < 0 {
				t.Fatalf("%s: unknown action %q", backend, a)
			}
			if _, err := mon.ObserveToken(tok); err != nil {
				t.Fatalf("%s: monitor: %v", backend, err)
			}
		}
	}
}

func TestTrainDetectorUnknownBackend(t *testing.T) {
	vocab, sessions := testCorpus(t, 5)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(vocab.Size())
	cfg.Backend = "bogus"
	if _, err := TrainDetector(cfg, vocab, clusters, nil); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
}

func TestDetectorSaveLoadNGramRoundTrip(t *testing.T) {
	vocab, sessions := testCorpus(t, 30)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(vocab.Size())
	cfg.Backend = baseline.BackendNGram
	d, err := TrainDetector(cfg, vocab, clusters, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "model")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDetector(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Backend() != baseline.BackendNGram {
		t.Fatalf("loaded backend %q", back.Backend())
	}
	a, err := d.ScoreSession(sessions[3])
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ScoreSession(sessions[3])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("loaded ngram detector scores differently:\n%+v\n%+v", a, b)
	}
}

// saveTestModel saves a fresh small ngram detector into dir.
func saveTestModel(t testing.TB, dir string) {
	t.Helper()
	vocab, sessions := testCorpus(t, 15)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(vocab.Size())
	cfg.Backend = baseline.BackendNGram
	d, err := TrainDetector(cfg, vocab, clusters, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
}

// rewriteManifest loads, mutates, and rewrites a model manifest.
func rewriteManifest(t *testing.T, dir string, mutate func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	mutate(man)
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// routerPath and modelPath locate cluster i's two files in dir.
func routerPath(dir string, i int) string { return filepath.Join(dir, clusterFiles(i)[0]) }
func modelPath(dir string, i int) string  { return filepath.Join(dir, clusterFiles(i)[1]) }

// replaceArtifactFile overwrites a listed file of a saved directory and
// rewrites its checksum and the manifest's total_bytes to match, so the
// new bytes pass verification and reach the decoder.
func replaceArtifactFile(t *testing.T, path string, data []byte) {
	t.Helper()
	old, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	rewriteManifest(t, filepath.Dir(path), func(man map[string]any) {
		man["checksums"].(map[string]any)[filepath.Base(path)] = hex.EncodeToString(sum[:])
		man["total_bytes"] = man["total_bytes"].(float64) + float64(len(data)) - float64(old.Size())
	})
}

// TestLoadDetectorEnvelopeErrors covers the failure modes of the tagged
// model store: every broken directory must fail with an error naming
// the problem, never a silent mis-load. A case that replaces a model
// file re-checksums it, so the file passes verification and the
// decoder's own refusal is what gets asserted.
func TestLoadDetectorEnvelopeErrors(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    string
	}{
		{
			name: "manifest format version mismatch",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) { man["format_version"] = 1 })
			},
			want: "format version 1",
		},
		{
			name: "legacy manifest without version",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) { delete(man, "format_version") })
			},
			want: "format version 0",
		},
		{
			name: "unknown backend tag",
			corrupt: func(t *testing.T, dir string) {
				replaceArtifactFile(t, modelPath(dir, 0), envelope(envelopeMagic, envelopeVersion, "alien", nil))
			},
			want: `unknown backend "alien"`,
		},
		{
			name: "envelope version mismatch",
			corrupt: func(t *testing.T, dir string) {
				replaceArtifactFile(t, modelPath(dir, 0), envelope(envelopeMagic, 9, "ngram", nil))
			},
			want: "format version 9",
		},
		{
			name: "corrupted model file",
			corrupt: func(t *testing.T, dir string) {
				replaceArtifactFile(t, modelPath(dir, 0), []byte("not a model at all"))
			},
			want: "bad magic",
		},
		{
			name: "truncated model file",
			corrupt: func(t *testing.T, dir string) {
				data, err := os.ReadFile(modelPath(dir, 1))
				if err != nil {
					t.Fatal(err)
				}
				replaceArtifactFile(t, modelPath(dir, 1), data[:len(data)/2])
			},
			want: "payload",
		},
		{
			name: "manifest backend disagrees with model file",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) { man["backend"] = "hmm" })
			},
			want: `backend "ngram", manifest says "hmm"`,
		},
		{
			name: "manifest feature mode other than counts",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) { man["feature_mode"] = 2 })
			},
			want: "feature_mode 2",
		},
		{
			name: "manifest backend unknown",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) { man["backend"] = "bogus" })
			},
			want: "unknown backend",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "model")
			saveTestModel(t, dir)
			tc.corrupt(t, dir)
			_, err := LoadDetector(dir)
			if err == nil {
				t.Fatal("LoadDetector succeeded on a broken directory")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
