package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"misusedetect/internal/actionlog"
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

// grownNGramDetector trains smallNGramDetector's model over a vocabulary
// grown by the extra names, which some of its training sessions use.
func grownNGramDetector(t *testing.T, extra ...string) *Detector {
	t.Helper()
	base, sessions := testCorpus(t, 20)
	vocab, err := actionlog.NewVocabulary(append(base.Actions(), extra...))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions[:8] {
		s.Actions = append(s.Actions, extra...)
	}
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

// TestRegistryInstallRacesLearn races the two ways a name enters the
// registry's interner: the wire edge learning names (some of them ones a
// generation about to be installed carries) while Swap and PublishCanary
// install vocabularies. Every installed generation's table must resolve
// each of its actions to its own vocabulary index, and nothing else.
func TestRegistryInstallRacesLearn(t *testing.T) {
	reg, err := NewRegistry(smallNGramDetector(t))
	if err != nil {
		t.Fatal(err)
	}
	const gens, perGen = 6, 3
	dets := make([]*Detector, gens)
	for g := range dets {
		extra := make([]string, perGen)
		for j := range extra {
			extra[j] = fmt.Sprintf("g%d-%d", g, j)
		}
		dets[g] = grownNGramDetector(t, extra...)
	}

	installed := []*ModelVersion{reg.Current()}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.interner.Intern(fmt.Sprintf("learn-%d-%d", w, i))
				reg.interner.Intern(fmt.Sprintf("g%d-%d", i%gens, (w+i)%perGen))
			}
		}(w)
	}
	for g, det := range dets {
		var mv *ModelVersion
		if g%2 == 0 {
			mv, err = reg.Swap(det, nil, "swap")
		} else if mv, err = reg.PublishCanary(det, nil, "canary", 0.5); err == nil {
			_, err = reg.PromoteCanary()
		}
		if err != nil {
			t.Fatal(err)
		}
		installed = append(installed, mv)
	}
	wg.Wait()

	snap := reg.interner.Snapshot()
	// The wire learns its own 800 names plus whichever generation names
	// it saw before their install; installs learn nothing.
	if fresh := 4 * 200; snap.Len() != 8+fresh+gens*perGen || snap.Learned() < fresh || snap.Learned() > fresh+gens*perGen {
		t.Fatalf("pool of %d names, %d learned: want %d names, %d to %d learned",
			snap.Len(), snap.Learned(), 8+fresh+gens*perGen, fresh, fresh+gens*perGen)
	}
	for _, mv := range installed {
		vocab := mv.Det.Vocabulary()
		for tok := int32(0); int(tok) < snap.Len(); tok++ {
			name, _ := snap.Name(tok)
			want := int32(actionlog.TokenUnknown)
			if i, err := vocab.Index(name); err == nil {
				want = int32(i)
			}
			if got := mv.index(tok); got != want {
				t.Fatalf("v%d: token %d (%q) resolves to %d, want %d", mv.Version, tok, name, got, want)
			}
		}
	}
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
