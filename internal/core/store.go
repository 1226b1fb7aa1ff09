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

	"misusedetect/internal/ocsvm"
)

// storeFormatVersion is the model-directory layout version. Version 2
// introduced the backend-tagged scorer envelope (cluster-NN-model.bin)
// in place of the LSTM-only gob files.
const storeFormatVersion = 2

// featureModeCounts is the manifest's feature_mode for count features,
// the only featurization. Save still writes it, so older builds (which
// require the field) load the directory; LoadDetector refuses any other
// present value (2 was length-normalized frequencies).
const featureModeCounts = 1

// storeManifest is the on-disk description of a saved detector.
type storeManifest struct {
	FormatVersion    int      `json:"format_version"`
	Backend          string   `json:"backend"`
	Actions          []string `json:"actions"`
	ClusterSizes     []int    `json:"cluster_sizes"`
	FeatureMode      int      `json:"feature_mode,omitempty"`
	MinSessionLength int      `json:"min_session_length"`
	RouteVoteActions int      `json:"route_vote_actions"`
	// Checksums maps every artifact file of the directory (relative
	// name, manifest.json excluded) to its SHA-256 hex digest, and
	// TotalBytes sums their sizes. Save fills both; openArtifact refuses
	// a manifest without them (written before they existed) or without
	// a cluster's file, and walk a directory that does not match them.
	Checksums  map[string]string `json:"checksums,omitempty"`
	TotalBytes int64             `json:"total_bytes,omitempty"`
}

// clusterFiles names cluster i's OC-SVM router file and its
// backend-tagged scorer envelope, in that order.
func clusterFiles(i int) [2]string {
	return [2]string{fmt.Sprintf("cluster-%02d-router.gob", i), fmt.Sprintf("cluster-%02d-model.bin", i)}
}

// Save writes the detector to a directory: a JSON manifest plus, per
// cluster, a gob OC-SVM file and a backend-tagged scorer envelope.
//
// The write is staged: every file lands in a temporary sibling
// directory first — cluster files, then the manifest (carrying their
// SHA-256 checksums) last — and the finished directory is renamed into
// place. A crash mid-save therefore never leaves a manifest-complete
// but torn directory behind: either the old directory is still there
// untouched, or the new one is complete. (POSIX rename cannot replace
// a non-empty directory atomically, so overwriting an existing target
// retires it first; a crash in that tiny window leaves the target
// absent — which every loader refuses cleanly — never torn.)
func (d *Detector) Save(dir string) error {
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("core: create model dir parent: %w", err)
	}
	tmp, err := os.MkdirTemp(parent, filepath.Base(dir)+".partial-")
	if err != nil {
		return fmt.Errorf("core: create staging dir: %w", err)
	}
	// A failed save must not litter the parent with partial stagings;
	// after a successful rename the staging path no longer exists and
	// RemoveAll is a no-op.
	defer os.RemoveAll(tmp)
	if err := d.writeArtifact(tmp); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("core: retire previous model dir: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("core: install model dir: %w", err)
	}
	return nil
}

// writeArtifact writes the full model artifact into dir: cluster files
// first, the checksum-carrying manifest last, so a directory with a
// manifest is by construction complete. The clusters are encoded and
// hashed in parallel through LargestFirst, each into its own partial
// manifest, and the partials are merged in cluster order, so the
// directory's bytes do not depend on GOMAXPROCS.
func (d *Detector) writeArtifact(dir string) error {
	man := storeManifest{
		FormatVersion:    storeFormatVersion,
		Backend:          d.Backend(),
		Actions:          d.vocab.Actions(),
		FeatureMode:      featureModeCounts,
		MinSessionLength: d.cfg.MinSessionLength,
		RouteVoteActions: d.cfg.RouteVoteActions,
		Checksums:        make(map[string]string, 2*len(d.clusters)),
	}
	parts := make([]storeManifest, len(d.clusters))
	for i := range d.clusters {
		man.ClusterSizes = append(man.ClusterSizes, d.clusters[i].TrainSize)
	}
	if err := LargestFirst(man.ClusterSizes, func(i int) error {
		parts[i].Checksums = make(map[string]string, 2)
		return saveCluster(dir, i, &d.clusters[i], &parts[i])
	}); err != nil {
		return err
	}
	for _, part := range parts {
		maps.Copy(man.Checksums, part.Checksums)
		man.TotalBytes += part.TotalBytes
	}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		return fmt.Errorf("core: write manifest: %w", err)
	}
	return nil
}

func saveCluster(dir string, i int, c *ClusterModel, man *storeManifest) error {
	names := clusterFiles(i)
	if err := writeHashed(dir, names[0], man, c.Router.Save); err != nil {
		return fmt.Errorf("core: save router %d: %w", i, err)
	}
	if err := writeHashed(dir, names[1], man, func(w io.Writer) error {
		return encodeModel(w, c.Model)
	}); err != nil {
		return fmt.Errorf("core: save model %d: %w", i, err)
	}
	return nil
}

// writeHashed writes one artifact file while hashing the bytes as they
// go out, recording digest and size in the (partial) manifest man.
func writeHashed(dir, name string, man *storeManifest, write func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if err := write(io.MultiWriter(f, h)); err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	man.Checksums[name] = hex.EncodeToString(h.Sum(nil))
	man.TotalBytes += size
	return f.Close()
}

// LoadDetector reads a detector saved by Save in one pass: the manifest
// is read and validated once, then each file it checksums is opened
// once and decoded only after its digest matched, models through the
// backend-tagged scorer envelope. The loaded detector scores and
// monitors; it cannot be trained further.
func LoadDetector(dir string) (*Detector, error) {
	a, err := openArtifact(dir)
	if err != nil {
		return nil, err
	}
	feat, err := ocsvm.NewFeaturizer(a.vocab.Size())
	if err != nil {
		return nil, fmt.Errorf("core: rebuild featurizer: %w", err)
	}
	clusters := make([]ClusterModel, len(a.ClusterSizes))
	if _, err := a.walk(clusters); err != nil {
		return nil, err
	}
	return newDetector(a.cfg, a.vocab, feat, clusters)
}

// decode reads cluster i's verified router or model file into clusters[i].
func (a *artifact) decode(clusters []ClusterModel, i int, model bool, r io.Reader) (err error) {
	c := &clusters[i]
	c.TrainSize = a.ClusterSizes[i]
	if !model {
		c.Router, err = ocsvm.Load(r)
		return err
	}
	s, err := decodeModel(r)
	if err != nil {
		return err
	}
	if got := s.Backend(); got != a.cfg.Backend {
		return fmt.Errorf("model has backend %q, manifest says %q", got, a.cfg.Backend)
	}
	if got := s.VocabSize(); got != a.vocab.Size() {
		return fmt.Errorf("model vocabulary %d does not match manifest vocabulary %d", got, a.vocab.Size())
	}
	c.setModel(s)
	return nil
}
