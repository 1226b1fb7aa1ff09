package expert

import (
	"math/rand"
	"testing"

	"misusedetect/internal/lda"
	"misusedetect/internal/tensor"
)

// threeGroupCorpus builds documents from three disjoint word groups over a
// 15-word vocabulary: words 0-4, 5-9, 10-14.
func threeGroupCorpus(perGroup int, seed int64) ([][]int, []int) {
	rng := rand.New(rand.NewSource(seed))
	var docs [][]int
	var truth []int
	for g := 0; g < 3; g++ {
		for i := 0; i < perGroup; i++ {
			doc := make([]int, 15)
			for j := range doc {
				doc[j] = g*5 + rng.Intn(5)
			}
			docs = append(docs, doc)
			truth = append(truth, g)
		}
	}
	return docs, truth
}

func fitEnsemble(t *testing.T, docs [][]int) *lda.Ensemble {
	t.Helper()
	ens, err := lda.FitEnsemble(docs, 15, lda.EnsembleConfig{
		TopicCounts:  []int{3, 4},
		RunsPerCount: 2,
		Iterations:   80,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

func TestSelectValidation(t *testing.T) {
	docs, _ := threeGroupCorpus(5, 1)
	ens := fitEnsemble(t, docs)
	if _, err := Select(ens, Options{TargetClusters: 0}); err == nil {
		t.Fatal("zero clusters must fail")
	}
	if _, err := Select(&lda.Ensemble{}, DefaultOptions(1)); err == nil {
		t.Fatal("empty ensemble must fail")
	}
}

func TestSelectRecoversLatentGroups(t *testing.T) {
	docs, truth := threeGroupCorpus(12, 2)
	ens := fitEnsemble(t, docs)
	sel, err := Select(ens, Options{TargetClusters: 3, MedoidIterations: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Groups) != 3 {
		t.Fatalf("got %d clusters", len(sel.Groups))
	}
	if len(sel.Assignments) != len(docs) {
		t.Fatalf("assignments cover %d docs, want %d", len(sel.Assignments), len(docs))
	}
	// The partition should align with ground truth up to relabeling:
	// compute purity.
	counts := map[[2]int]int{}
	for i, g := range sel.Assignments {
		counts[[2]int{g, truth[i]}]++
	}
	correct := 0
	for g := 0; g < 3; g++ {
		best := 0
		for tr := 0; tr < 3; tr++ {
			if c := counts[[2]int{g, tr}]; c > best {
				best = c
			}
		}
		correct += best
	}
	purity := float64(correct) / float64(len(docs))
	if purity < 0.9 {
		t.Fatalf("cluster purity %.2f < 0.9", purity)
	}
}

func TestSelectGroupInvariants(t *testing.T) {
	docs, _ := threeGroupCorpus(8, 3)
	ens := fitEnsemble(t, docs)
	sel, err := Select(ens, Options{TargetClusters: 4, MedoidIterations: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var shareSum float64
	for gi, g := range sel.Groups {
		if len(g.Members) == 0 {
			t.Fatalf("group %d empty", gi)
		}
		medoidIsMember := false
		for _, m := range g.Members {
			if seen[m] {
				t.Fatalf("topic %d in two groups", m)
			}
			seen[m] = true
			if m == g.Medoid {
				medoidIsMember = true
			}
		}
		if !medoidIsMember {
			t.Fatalf("group %d medoid %d not a member", gi, g.Medoid)
		}
		shareSum += g.Share
	}
	if len(seen) != len(ens.Topics) {
		t.Fatalf("groups cover %d topics, ensemble has %d", len(seen), len(ens.Topics))
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("shares sum to %v", shareSum)
	}
	for _, a := range sel.Assignments {
		if a < 0 || a >= len(sel.Groups) {
			t.Fatalf("assignment %d out of range", a)
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	docs, _ := threeGroupCorpus(6, 4)
	ens := fitEnsemble(t, docs)
	a, err := Select(ens, Options{TargetClusters: 3, MedoidIterations: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Select(ens, Options{TargetClusters: 3, MedoidIterations: 10, Seed: 11})
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed must give the same selection")
		}
	}
}

func TestSelectClampsClusterCount(t *testing.T) {
	docs, _ := threeGroupCorpus(5, 5)
	ens := fitEnsemble(t, docs) // 14 pooled topics
	sel, err := Select(ens, Options{TargetClusters: 100, MedoidIterations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Groups) > len(ens.Topics) {
		t.Fatalf("more clusters (%d) than topics (%d)", len(sel.Groups), len(ens.Topics))
	}
}

func TestSelectMinSharePrunes(t *testing.T) {
	docs, _ := threeGroupCorpus(10, 6)
	ens := fitEnsemble(t, docs)
	sel, err := Select(ens, Options{TargetClusters: 8, MinShare: 0.1, MedoidIterations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range sel.Groups {
		if g.Share < 0.1 {
			t.Fatalf("group %d kept with share %.3f < MinShare", gi, g.Share)
		}
	}
	if len(sel.Assignments) != len(docs) {
		t.Fatal("pruning lost documents")
	}
}

func TestPartition(t *testing.T) {
	sel := &Selection{
		Groups:      []TopicGroup{{}, {}},
		Assignments: []int{0, 1, 0, 1, 1},
	}
	parts, err := Partition(sel, []string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[0]) != 2 || len(parts[1]) != 3 {
		t.Fatalf("partition sizes %d/%d", len(parts[0]), len(parts[1]))
	}
	if parts[0][0] != "a" || parts[1][2] != "e" {
		t.Fatalf("partition content %v", parts)
	}
	if _, err := Partition(sel, []string{"a"}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestKMedoidsDirect(t *testing.T) {
	// Two tight groups of 3 points.
	d := tensor.NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			if (i < 3) == (j < 3) {
				d.Set(i, j, 0.2)
			} else {
				d.Set(i, j, 5)
			}
		}
	}
	medoids, labels := kMedoids(d, 2, 20, 1)
	if len(medoids) != 2 {
		t.Fatalf("got %d medoids", len(medoids))
	}
	if (medoids[0] < 3) == (medoids[1] < 3) {
		t.Fatalf("medoids %v in the same group", medoids)
	}
	for i := 0; i < 3; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("labels %v split group A", labels)
		}
	}
	for i := 3; i < 6; i++ {
		if labels[i] != labels[3] {
			t.Fatalf("labels %v split group B", labels)
		}
	}
	if labels[0] == labels[3] {
		t.Fatalf("labels %v merge both groups", labels)
	}
}
