package core

import (
	"path/filepath"
	"testing"

	"misusedetect/internal/baseline"
)

// smallNGramDetector trains a fast two-cluster ngram detector.
func smallNGramDetector(t *testing.T) *Detector {
	t.Helper()
	vocab, sessions := testCorpus(t, 20)
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
	return d
}

func TestRegistryVersioning(t *testing.T) {
	detA := smallNGramDetector(t)
	detB := smallNGramDetector(t)

	reg, err := NewRegistry(detA)
	if err != nil {
		t.Fatal(err)
	}
	mv := reg.Current()
	if mv.Version != 1 || mv.Det != detA || mv.Source != "initial" {
		t.Fatalf("initial generation = %+v", mv)
	}
	next, err := reg.Swap(detB, nil, "retrain")
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != 2 || next.Det != detB || next.Source != "retrain" {
		t.Fatalf("swapped generation = %+v", next)
	}
	if reg.Current() != next {
		t.Fatal("Current does not return the swapped generation")
	}
	// The old generation object stays intact for pinned sessions.
	if mv.Version != 1 || mv.Det != detA {
		t.Fatal("swap mutated the previous generation")
	}
}

func TestRegistryRejectsBadGenerations(t *testing.T) {
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("nil detector must fail")
	}
	if _, err := NewRegistry(&Detector{}); err == nil {
		t.Fatal("clusterless detector must fail")
	}
	reg, err := NewRegistry(smallNGramDetector(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap(nil, nil, "x"); err == nil {
		t.Fatal("nil swap must fail")
	}
	if reg.Current().Version != 1 {
		t.Fatal("failed swap must not advance the version")
	}
	if _, err := NewEngineRegistry(nil, EngineConfig{Monitor: DefaultMonitorConfig()}); err == nil {
		t.Fatal("nil registry must fail")
	}
}

// TestRegistryLoadFrom installs a saved model directory the way every
// reload does: LoadGeneration verifies and reads it, Swap installs it.
func TestRegistryLoadFrom(t *testing.T) {
	det := smallNGramDetector(t)
	dir := filepath.Join(t.TempDir(), "model")
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	loaded, monitor, err := LoadGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	if monitor != nil {
		t.Fatalf("directory without %s yielded monitor %+v", ThresholdsFile, monitor)
	}
	mv, err := reg.Swap(loaded, monitor, dir)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Version != 2 || mv.Source != dir || mv.Monitor != nil {
		t.Fatalf("loaded generation = %+v", mv)
	}
	if mv.Det.Backend() != baseline.BackendNGram {
		t.Fatalf("loaded backend %q", mv.Det.Backend())
	}
	if _, _, err := LoadGeneration(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir must fail")
	}
}

// TestResolveMonitorPrecedence: an explicit fragment file wins, then the
// model directory's thresholds.json, then the defaults.
func TestResolveMonitorPrecedence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "model")
	if err := smallNGramDetector(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	_, fragment, err := LoadGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, source, err := ResolveMonitor("", dir, fragment)
	if err != nil || source != "defaults" || got.LikelihoodFloor != DefaultMonitorConfig().LikelihoodFloor {
		t.Fatalf("no fragments: floor %v from %q (err %v), want the defaults", got.LikelihoodFloor, source, err)
	}

	inDir := DefaultMonitorConfig()
	inDir.LikelihoodFloor = 0.25
	thresholds := filepath.Join(dir, ThresholdsFile)
	if err := SaveMonitorConfig(thresholds, inDir); err != nil {
		t.Fatal(err)
	}
	if _, fragment, err = LoadGeneration(dir); err != nil {
		t.Fatal(err)
	}
	got, source, err = ResolveMonitor("", dir, fragment)
	if err != nil || source != thresholds || got.LikelihoodFloor != 0.25 {
		t.Fatalf("directory fragment: floor %v from %q (err %v), want 0.25 from %s", got.LikelihoodFloor, source, err, thresholds)
	}

	explicit := DefaultMonitorConfig()
	explicit.LikelihoodFloor = 0.5
	flagPath := filepath.Join(t.TempDir(), "monitor.json")
	if err := SaveMonitorConfig(flagPath, explicit); err != nil {
		t.Fatal(err)
	}
	got, source, err = ResolveMonitor(flagPath, dir, fragment)
	if err != nil || source != flagPath || got.LikelihoodFloor != 0.5 {
		t.Fatalf("explicit fragment: floor %v from %q (err %v), want 0.5 from %s", got.LikelihoodFloor, source, err, flagPath)
	}
	if _, _, err := ResolveMonitor(filepath.Join(t.TempDir(), "missing.json"), dir, fragment); err == nil {
		t.Fatal("a missing fragment file must fail, not fall back")
	}
}
