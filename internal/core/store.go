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

	"misusedetect/internal/actionlog"
	"misusedetect/internal/lm"
	"misusedetect/internal/ocsvm"
	"misusedetect/internal/scorer"
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
	// TotalBytes sums their sizes. Save fills both; VerifyArtifact
	// refuses a directory whose files do not match, and one whose
	// manifest carries no checksums (written before they existed).
	Checksums  map[string]string `json:"checksums,omitempty"`
	TotalBytes int64             `json:"total_bytes,omitempty"`
}

func routerPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("cluster-%02d-router.gob", i))
}

func modelPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("cluster-%02d-model.bin", i))
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
	if err := writeHashed(dir, filepath.Base(routerPath(dir, i)), man, func(w io.Writer) error {
		return c.Router.Save(w)
	}); err != nil {
		return fmt.Errorf("core: save router %d: %w", i, err)
	}
	if err := writeHashed(dir, filepath.Base(modelPath(dir, i)), man, func(w io.Writer) error {
		return scorer.Encode(w, c.Model)
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
	h := sha256.New()
	n := &countingWriter{w: io.MultiWriter(f, h)}
	if err := write(n); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	man.Checksums[name] = hex.EncodeToString(h.Sum(nil))
	man.TotalBytes += n.n
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// LoadDetector reads a detector saved by Save. The loaded detector
// scores and monitors; it cannot be trained further. Every cluster model
// is decoded through the backend-tagged scorer envelope, so a directory
// written by an unknown backend or an incompatible format version fails
// with a descriptive error instead of mis-decoding.
func LoadDetector(dir string) (*Detector, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("core: read manifest: %w", err)
	}
	var man storeManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("core: parse manifest: %w", err)
	}
	if man.FormatVersion != storeFormatVersion {
		return nil, fmt.Errorf("core: model directory has format version %d; this build reads version %d (retrain or convert the model)",
			man.FormatVersion, storeFormatVersion)
	}
	vocab, err := actionlog.NewVocabulary(man.Actions)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild vocabulary: %w", err)
	}
	if man.FeatureMode != 0 && man.FeatureMode != featureModeCounts {
		return nil, fmt.Errorf("core: manifest feature_mode %d: only count features (feature_mode %d) are supported; retrain the model",
			man.FeatureMode, featureModeCounts)
	}
	feat, err := ocsvm.NewFeaturizer(vocab.Size())
	if err != nil {
		return nil, fmt.Errorf("core: rebuild featurizer: %w", err)
	}
	if man.Backend == "" {
		man.Backend = lm.BackendLSTM
	}
	cfg := PaperConfig(vocab.Size(), 0)
	cfg.Backend = man.Backend
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("core: manifest: %w", err)
	}
	if man.MinSessionLength >= 2 {
		cfg.MinSessionLength = man.MinSessionLength
	}
	if man.RouteVoteActions >= 1 {
		cfg.RouteVoteActions = man.RouteVoteActions
	}
	if len(man.ClusterSizes) == 0 {
		return nil, fmt.Errorf("core: saved detector has no clusters")
	}
	clusters := make([]ClusterModel, 0, len(man.ClusterSizes))
	for i := range man.ClusterSizes {
		cm, err := loadCluster(dir, i, &man, vocab.Size())
		if err != nil {
			return nil, err
		}
		clusters = append(clusters, cm)
	}
	return newDetector(cfg, vocab, feat, clusters)
}

func loadCluster(dir string, i int, man *storeManifest, vocabSize int) (ClusterModel, error) {
	rf, err := os.Open(routerPath(dir, i))
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: open router %d: %w", i, err)
	}
	router, err := ocsvm.Load(rf)
	rf.Close()
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: load router %d: %w", i, err)
	}
	mf, err := os.Open(modelPath(dir, i))
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: open model %d: %w", i, err)
	}
	model, err := scorer.Decode(mf)
	mf.Close()
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: load model %d: %w", i, err)
	}
	if got := model.Backend(); got != man.Backend {
		return ClusterModel{}, fmt.Errorf("core: cluster %d model has backend %q, manifest says %q", i, got, man.Backend)
	}
	if got := model.VocabSize(); got != vocabSize {
		return ClusterModel{}, fmt.Errorf("core: cluster %d model vocabulary %d does not match manifest vocabulary %d", i, got, vocabSize)
	}
	cm := ClusterModel{Router: router, Model: model, TrainSize: man.ClusterSizes[i]}
	if lmModel, ok := model.(*lm.Model); ok {
		cm.LM = lmModel
	}
	return cm, nil
}
