package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

// VerifyArtifact checks a saved model directory against the checksums
// its manifest carries: every listed file must exist, the sizes must
// sum to the manifest's total, and every SHA-256 digest must match.
// A torn write, a truncated file, a tampered byte, or a manifest with no
// checksums at all fails with an error naming the problem.
// LoadGeneration (and through it daemon startup and reload, and
// misusectl monitor) and the adaptation pipeline all run this before
// touching weights.
func VerifyArtifact(dir string) (*VerifyReport, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("core: verify %s: read manifest: %w (torn or incomplete artifact)", dir, err)
	}
	var man storeManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("core: verify %s: parse manifest: %w", dir, err)
	}
	if man.FormatVersion != storeFormatVersion {
		return nil, fmt.Errorf("core: verify %s: manifest has format version %d; this build reads version %d",
			dir, man.FormatVersion, storeFormatVersion)
	}
	if len(man.Checksums) == 0 {
		return nil, fmt.Errorf("core: verify %s: manifest carries no checksums; re-save the model", dir)
	}
	rep := &VerifyReport{FormatVersion: man.FormatVersion, Backend: man.Backend}
	// Deterministic file order so repeated failures report the same
	// file first.
	names := make([]string, 0, len(man.Checksums))
	for name := range man.Checksums {
		if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
			return nil, fmt.Errorf("core: verify %s: manifest names suspicious file %q", dir, name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		digest, size, err := hashFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("core: verify %s: %s: %w (torn or incomplete artifact)", dir, name, err)
		}
		if digest != man.Checksums[name] {
			return nil, fmt.Errorf("core: verify %s: %s: SHA-256 mismatch (artifact %s, manifest %s): file corrupted, truncated, or tampered",
				dir, name, digest, man.Checksums[name])
		}
		rep.Files++
		rep.TotalBytes += size
	}
	if rep.TotalBytes != man.TotalBytes {
		return nil, fmt.Errorf("core: verify %s: artifact files total %d bytes, manifest says %d (truncated or padded)",
			dir, rep.TotalBytes, man.TotalBytes)
	}
	return rep, nil
}

// hashFile streams one file through SHA-256.
func hashFile(path string) (digest string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
