package core

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misusedetect/internal/scorer"
)

func TestVerifyArtifactHappyPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "model")
	saveTestModel(t, dir)
	rep, err := VerifyArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two clusters, a router and a model envelope each.
	if rep.Files != 4 || rep.TotalBytes <= 0 {
		t.Fatalf("verify report = %+v, want 4 files and positive size", rep)
	}
	if rep.FormatVersion != storeFormatVersion || rep.Backend == "" {
		t.Fatalf("verify report metadata = %+v", rep)
	}
}

// TestVerifyArtifactRefusesTornDirectories is the torn-directory matrix
// of the verified-artifact path: a missing manifest, a manifest with its
// checksums stripped, a missing cluster file, a truncated envelope, a
// flipped byte, a padded file, a lying byte total, a path-traversing
// manifest entry, and a cluster whose files the manifest leaves
// unchecksummed must each be refused by VerifyArtifact AND by
// LoadGeneration, the reader in front of every registry install — with
// an error naming the problem.
func TestVerifyArtifactRefusesTornDirectories(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    string
	}{
		{
			name: "manifest missing",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
					t.Fatal(err)
				}
			},
			want: "read manifest",
		},
		{
			name: "manifest without checksums",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) {
					delete(man, "checksums")
					delete(man, "total_bytes")
				})
			},
			want: "manifest carries no checksums",
		},
		{
			name: "cluster model file missing",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(modelPath(dir, 0)); err != nil {
					t.Fatal(err)
				}
			},
			want: "torn or incomplete artifact",
		},
		{
			name: "router file missing",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(routerPath(dir, 1)); err != nil {
					t.Fatal(err)
				}
			},
			want: "torn or incomplete artifact",
		},
		{
			name: "truncated envelope",
			corrupt: func(t *testing.T, dir string) {
				data, err := os.ReadFile(modelPath(dir, 0))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(modelPath(dir, 0), data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "SHA-256 mismatch",
		},
		{
			name: "flipped byte",
			corrupt: func(t *testing.T, dir string) {
				data, err := os.ReadFile(modelPath(dir, 1))
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(modelPath(dir, 1), data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "SHA-256 mismatch",
		},
		{
			name: "padded file",
			corrupt: func(t *testing.T, dir string) {
				f, err := os.OpenFile(modelPath(dir, 0), os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("junk")); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			},
			want: "SHA-256 mismatch",
		},
		{
			name: "manifest lies about total bytes",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) {
					man["total_bytes"] = man["total_bytes"].(float64) + 1
				})
			},
			want: "truncated or padded",
		},
		{
			name: "manifest names a traversing path",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(man map[string]any) {
					man["checksums"].(map[string]any)["../evil"] = strings.Repeat("0", 64)
				})
			},
			want: "suspicious",
		},
		{
			// The checksums are consistent with the files they list, but
			// cluster 1's are not listed: its model, swapped for cluster
			// 0's, would otherwise serve unverified.
			name: "cluster files missing from the checksums",
			corrupt: func(t *testing.T, dir string) {
				var dropped int64
				for _, path := range []string{routerPath(dir, 1), modelPath(dir, 1)} {
					fi, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					dropped += fi.Size()
				}
				data, err := os.ReadFile(modelPath(dir, 0))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(modelPath(dir, 1), data, 0o644); err != nil {
					t.Fatal(err)
				}
				rewriteManifest(t, dir, func(man map[string]any) {
					sums := man["checksums"].(map[string]any)
					delete(sums, filepath.Base(routerPath(dir, 1)))
					delete(sums, filepath.Base(modelPath(dir, 1)))
					man["total_bytes"] = man["total_bytes"].(float64) - float64(dropped)
				})
			},
			want: "no checksum for cluster-01-router.gob",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "model")
			saveTestModel(t, dir)
			tc.corrupt(t, dir)
			_, err := VerifyArtifact(dir)
			if err == nil {
				t.Fatal("VerifyArtifact accepted a torn directory")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verify error %q does not mention %q", err, tc.want)
			}
			// The generation reader must refuse the same directory before
			// touching any weight, so nothing reaches a registry.
			if _, _, err := LoadGeneration(dir); err == nil {
				t.Fatal("LoadGeneration accepted a torn directory")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadGeneration error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// failingScorer is a save-failure injection point: encodeModel refuses
// its empty backend tag, so any artifact write that reaches this model
// errors out mid-save — simulating a crash between cluster files.
type failingScorer struct{}

func (failingScorer) Backend() string          { return "" }
func (failingScorer) VocabSize() int           { return 0 }
func (failingScorer) NewStream() scorer.Stream { return nil }
func (failingScorer) Save(io.Writer) error     { return errors.New("stub scorer cannot save") }

// TestSaveAtomicity pins the staged-save contract: a save that dies
// half-way must leave the previously installed directory byte-for-byte
// intact and may never produce a manifest-complete torn directory — the
// manifest is written last, after every file it checksums.
func TestSaveAtomicity(t *testing.T) {
	det := smallNGramDetector(t)
	parent := t.TempDir()
	dir := filepath.Join(parent, "model")
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Failure injected after cluster 0's router but before its model
	// envelope completes.
	good := det.clusters[0].Model
	det.clusters[0].Model = failingScorer{}
	if err := det.Save(dir); err == nil {
		t.Fatal("save with a failing cluster model must fail")
	}
	// The serving directory is untouched and still verifies.
	if _, err := VerifyArtifact(dir); err != nil {
		t.Fatalf("failed save corrupted the installed directory: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed save rewrote the installed manifest")
	}
	// No partial staging directories left behind in the parent.
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "model" {
			t.Fatalf("failed save littered the parent with %q", e.Name())
		}
	}

	// Crash simulation: writeArtifact dies before the manifest goes out,
	// so the torn staging directory has no manifest at all — exactly the
	// state VerifyArtifact refuses as "torn or incomplete".
	stage := t.TempDir()
	if err := det.writeArtifact(stage); err == nil {
		t.Fatal("writeArtifact with a failing cluster model must fail")
	}
	if _, err := os.Stat(filepath.Join(stage, "manifest.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crashed save left a manifest behind (stat err %v): torn dir would pass for complete", err)
	}
	if _, err := VerifyArtifact(stage); err == nil || !strings.Contains(err.Error(), "torn or incomplete") {
		t.Fatalf("torn staging dir not refused: %v", err)
	}

	// Healed model: overwriting the existing installed directory is a
	// clean replace that verifies and loads.
	det.clusters[0].Model = good
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyArtifact(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDetector(dir); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoadManifest feeds arbitrary manifest.json bytes to LoadGeneration
// over a saved two-cluster n-gram directory, the trust boundary in front
// of every registry install. The load must never panic. A manifest whose
// cluster_sizes names a cluster the checksums do not cover, however many
// clusters it claims, must be refused by openArtifact, the manifest pass
// LoadDetector runs before it allocates any per-cluster state. And a
// load that succeeds must have decoded only files the manifest lists.
func FuzzLoadManifest(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "model")
	saveTestModel(f, dir)
	path := filepath.Join(dir, "manifest.json")
	saved, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	edit := func(mutate func(man map[string]any)) []byte {
		var man map[string]any
		if err := json.Unmarshal(saved, &man); err != nil {
			f.Fatal(err)
		}
		mutate(man)
		out, err := json.Marshal(man)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	f.Add(saved)
	f.Add(edit(func(man map[string]any) { man["cluster_sizes"] = make([]int, 1<<16) }))
	f.Add(edit(func(man map[string]any) { man["cluster_sizes"] = []int{15} }))
	f.Add(edit(func(man map[string]any) {
		delete(man["checksums"].(map[string]any), "cluster-01-model.bin")
	}))
	f.Add(edit(func(man map[string]any) { man["backend"] = "" }))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		det, _, loadErr := LoadGeneration(dir)
		var man storeManifest
		if err := json.Unmarshal(data, &man); err != nil {
			if loadErr == nil {
				t.Fatalf("loaded a directory whose manifest does not parse: %v", err)
			}
			return
		}
		unlisted := ""
		for i := 0; i < len(man.ClusterSizes) && unlisted == ""; i++ {
			for _, name := range clusterFiles(i) {
				if _, ok := man.Checksums[name]; !ok && unlisted == "" {
					unlisted = name
				}
			}
		}
		if loadErr == nil && det.ClusterCount() != len(man.ClusterSizes) {
			t.Fatalf("loaded %d clusters from a manifest of %d", det.ClusterCount(), len(man.ClusterSizes))
		}
		if unlisted == "" {
			return
		}
		// Loading would have decoded the unlisted file; refusing it
		// anywhere but the manifest pass would have allocated for every
		// claimed cluster first.
		_, openErr := openArtifact(dir)
		if loadErr == nil || openErr == nil || !strings.Contains(loadErr.Error(), openErr.Error()) {
			t.Fatalf("%d clusters, %s unlisted: load error %v, manifest-pass error %v; want the load refused by the manifest pass",
				len(man.ClusterSizes), unlisted, loadErr, openErr)
		}
	})
}
