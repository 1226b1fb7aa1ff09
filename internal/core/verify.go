package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"misusedetect/internal/actionlog"
)

// VerifyReport summarizes one artifact-integrity pass over a model
// directory.
type VerifyReport struct {
	// FormatVersion is the manifest's store layout version.
	FormatVersion int `json:"format_version"`
	// Backend is the manifest's recorded scorer backend.
	Backend string `json:"backend"`
	// Files is the number of checksummed files verified; TotalBytes is
	// their summed size.
	Files      int   `json:"files"`
	TotalBytes int64 `json:"total_bytes"`
}

// VerifyArtifact makes LoadDetector's one pass over a model directory
// without decoding: a torn, truncated or tampered file, or an invalid
// manifest, fails with an error naming the problem.
func VerifyArtifact(dir string) (*VerifyReport, error) {
	a, err := openArtifact(dir)
	if err != nil {
		return nil, err
	}
	return a.walk(nil)
}

// artifact is a model directory whose manifest was read once and
// validated: names lists its checksummed files in name order, and files
// maps each file a cluster requires to that cluster.
type artifact struct {
	storeManifest
	dir   string
	vocab *actionlog.Vocabulary
	cfg   Config
	names []string
	files map[string]int
}

// openArtifact reads and validates dir's manifest before any other file
// is opened: the format version, a non-empty list of plain checksummed
// file names, the vocabulary, the feature mode, the backend ("" is the
// LSTM), and a checksum for every cluster's router and model file.
func openArtifact(dir string) (*artifact, error) {
	fail := func(format string, args ...any) (*artifact, error) {
		return nil, fmt.Errorf("core: verify %s: "+format, append([]any{dir}, args...)...)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fail("read manifest: %w (torn or incomplete artifact)", err)
	}
	a := &artifact{dir: dir, files: map[string]int{}}
	if err := json.Unmarshal(data, &a.storeManifest); err != nil {
		return fail("parse manifest: %w", err)
	}
	if a.FormatVersion != storeFormatVersion {
		return fail("manifest has format version %d; this build reads version %d (retrain or convert the model)",
			a.FormatVersion, storeFormatVersion)
	}
	if len(a.Checksums) == 0 {
		return fail("manifest carries no checksums; re-save the model")
	}
	a.names = slices.Sorted(maps.Keys(a.Checksums))
	for _, name := range a.names {
		if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
			return fail("manifest names suspicious file %q", name)
		}
	}
	if a.vocab, err = actionlog.NewVocabulary(a.Actions); err != nil {
		return fail("rebuild vocabulary: %w", err)
	}
	if a.FeatureMode != 0 && a.FeatureMode != featureModeCounts {
		return fail("manifest feature_mode %d: only count features (feature_mode %d) are supported; retrain the model",
			a.FeatureMode, featureModeCounts)
	}
	a.cfg = PaperConfig(a.vocab.Size(), 0)
	a.cfg.Backend = a.Backend
	if err := a.cfg.validate(); err != nil {
		return fail("manifest: %w", err)
	}
	a.cfg.Backend = a.cfg.backend()
	if a.MinSessionLength >= 2 {
		a.cfg.MinSessionLength = a.MinSessionLength
	}
	if a.RouteVoteActions >= 1 {
		a.cfg.RouteVoteActions = a.RouteVoteActions
	}
	if len(a.ClusterSizes) == 0 {
		return fail("saved detector has no clusters")
	}
	// files grows only by listed names, whatever cluster count is claimed.
	for i := range a.ClusterSizes {
		for _, name := range clusterFiles(i) {
			if _, ok := a.Checksums[name]; !ok {
				return fail("manifest has no checksum for %s (torn or incomplete artifact)", name)
			}
			a.files[name] = i
		}
	}
	return a, nil
}

// walk opens and hashes each checksummed file once, in name order, and
// decodes a matched cluster file into clusters (nil only verifies).
func (a *artifact) walk(clusters []ClusterModel) (*VerifyReport, error) {
	rep := &VerifyReport{FormatVersion: a.FormatVersion, Backend: a.cfg.Backend}
	for _, name := range a.names {
		if err := a.verifyFile(name, rep, clusters); err != nil {
			return nil, fmt.Errorf("core: verify %s: %s: %w", a.dir, name, err)
		}
	}
	if rep.TotalBytes != a.TotalBytes {
		return nil, fmt.Errorf("core: verify %s: artifact files total %d bytes, manifest says %d (truncated or padded)",
			a.dir, rep.TotalBytes, a.TotalBytes)
	}
	return rep, nil
}

// verifyFile hashes one listed file into rep and, if it matched and a
// cluster requires it, decodes it from its start.
func (a *artifact) verifyFile(name string, rep *VerifyReport, clusters []ClusterModel) error {
	var size int64
	h := sha256.New()
	f, err := os.Open(filepath.Join(a.dir, name))
	if err == nil {
		defer f.Close()
		size, err = io.Copy(h, f)
	}
	if err != nil {
		return fmt.Errorf("%w (torn or incomplete artifact)", err)
	}
	if digest := hex.EncodeToString(h.Sum(nil)); digest != a.Checksums[name] {
		return fmt.Errorf("SHA-256 mismatch (artifact %s, manifest %s): file corrupted, truncated, or tampered",
			digest, a.Checksums[name])
	}
	rep.Files++
	rep.TotalBytes += size
	i, ok := a.files[name]
	if clusters == nil || !ok {
		return nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return a.decode(clusters, i, name == clusterFiles(i)[1], f)
}
