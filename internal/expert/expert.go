// Package expert simulates the security experts of the paper's informed
// clustering step. In the paper, experts use the visual interface to
// select groups of LDA-ensemble topics — judging representativeness and
// coverage — and the selected groups partition the historical sessions
// into k=13 behavior clusters. This package reproduces that judgment as an
// explicit, auditable policy operating on the same artifacts the interface
// shows: the topic-topic similarity structure, topic weights, and the
// document-topic matrices.
//
// The policy is: group the pooled ensemble topics by k-medoids under
// Jensen-Shannon distance (topics from different runs that describe the
// same behavior collapse into one group, which is exactly what experts do
// when they brush a cluster of dots in the projection view), highlight
// each group's medoid, drop groups that fail a minimum-share
// representativeness test, and assign every session to the group that
// explains it best.
package expert

import (
	"fmt"
	"math/rand"

	"misusedetect/internal/lda"
	"misusedetect/internal/tensor"
)

// Options controls the simulated expert.
type Options struct {
	// TargetClusters is the number of behavior clusters to select (13 in
	// the paper's use case).
	TargetClusters int
	// MinShare drops groups explaining less than this fraction of
	// sessions; their sessions are reassigned to the next-best group.
	// Zero keeps every group.
	MinShare float64
	// MedoidIterations bounds the k-medoids refinement sweeps.
	MedoidIterations int
	// Seed makes the selection deterministic.
	Seed int64
}

// DefaultOptions returns the paper's setup: 13 clusters.
func DefaultOptions(seed int64) Options {
	return Options{
		TargetClusters:   13,
		MinShare:         0,
		MedoidIterations: 30,
		Seed:             seed,
	}
}

// TopicGroup is one expert-selected group of ensemble topics.
type TopicGroup struct {
	// Members indexes into the ensemble's pooled topic list.
	Members []int
	// Medoid is the highlighted representative topic (a member).
	Medoid int
	// Share is the fraction of sessions assigned to the group.
	Share float64
}

// Selection is the result of the expert interaction: the chosen groups and
// a session-to-group assignment covering the whole history.
type Selection struct {
	Groups []TopicGroup
	// Assignments maps each document (session) index to a group index.
	Assignments []int
}

// Partition splits any per-document payload slice into per-cluster slices
// according to the assignments.
func Partition[T any](s *Selection, docs []T) ([][]T, error) {
	if len(docs) != len(s.Assignments) {
		return nil, fmt.Errorf("expert: %d docs for %d assignments", len(docs), len(s.Assignments))
	}
	out := make([][]T, len(s.Groups))
	for i, g := range s.Assignments {
		out[g] = append(out[g], docs[i])
	}
	return out, nil
}

// Select runs the simulated expert on a fitted ensemble. docsLen is the
// number of documents the ensemble was fitted on.
func Select(ens *lda.Ensemble, opts Options) (*Selection, error) {
	if opts.TargetClusters < 1 {
		return nil, fmt.Errorf("expert: TargetClusters must be >= 1, got %d", opts.TargetClusters)
	}
	if len(ens.Topics) == 0 {
		return nil, fmt.Errorf("expert: ensemble has no topics")
	}
	if len(ens.Models) == 0 {
		return nil, fmt.Errorf("expert: ensemble has no models")
	}
	k := opts.TargetClusters
	if k > len(ens.Topics) {
		k = len(ens.Topics)
	}
	dist, err := ens.DistanceMatrix()
	if err != nil {
		return nil, fmt.Errorf("expert: topic distances: %w", err)
	}
	medoids, labels := kMedoids(dist, k, opts.MedoidIterations, opts.Seed)

	groups := make([]TopicGroup, k)
	for g := range groups {
		groups[g].Medoid = medoids[g]
	}
	for t, g := range labels {
		groups[g].Members = append(groups[g].Members, t)
	}

	docs := ens.Models[0].DocTopic.Rows
	assignments := assignDocuments(ens, groups, docs)

	sel := &Selection{Groups: groups, Assignments: assignments}
	sel.updateShares()

	if opts.MinShare > 0 {
		sel = pruneSmallGroups(ens, sel, opts.MinShare, docs)
	}
	return sel, nil
}

// assignDocuments gives each document to the group whose member topics
// explain it best: the average document-topic responsibility over the
// group's members.
func assignDocuments(ens *lda.Ensemble, groups []TopicGroup, docs int) []int {
	assignments := make([]int, docs)
	scores := tensor.NewVector(len(groups))
	for d := 0; d < docs; d++ {
		for g := range groups {
			var s float64
			for _, t := range groups[g].Members {
				topic := ens.Topics[t]
				s += ens.Models[topic.Run].DocTopic.At(d, topic.Index)
			}
			scores[g] = s / float64(len(groups[g].Members))
		}
		assignments[d] = scores.ArgMax()
	}
	return assignments
}

func (s *Selection) updateShares() {
	counts := make([]int, len(s.Groups))
	for _, g := range s.Assignments {
		counts[g]++
	}
	total := float64(len(s.Assignments))
	if total == 0 {
		total = 1
	}
	for g := range s.Groups {
		s.Groups[g].Share = float64(counts[g]) / total
	}
}

// pruneSmallGroups models the expert removing unrepresentative topics:
// groups below the share threshold are dropped and their sessions
// reassigned among the survivors.
func pruneSmallGroups(ens *lda.Ensemble, sel *Selection, minShare float64, docs int) *Selection {
	keep := make([]TopicGroup, 0, len(sel.Groups))
	for _, g := range sel.Groups {
		if g.Share >= minShare {
			keep = append(keep, g)
		}
	}
	if len(keep) == 0 || len(keep) == len(sel.Groups) {
		return sel
	}
	out := &Selection{Groups: keep}
	out.Assignments = assignDocuments(ens, keep, docs)
	out.updateShares()
	return out
}

// kMedoids clusters n items with the given distance matrix into k groups
// using a PAM-style alternating refinement: assign to nearest medoid, then
// recompute each group's medoid; repeated until stable or maxIter sweeps.
// It returns the medoid indices and per-item labels.
func kMedoids(dist *tensor.Matrix, k, maxIter int, seed int64) (medoids []int, labels []int) {
	n := dist.Rows
	rng := rand.New(rand.NewSource(seed))
	if maxIter < 1 {
		maxIter = 1
	}

	// Seed medoids greedily (k-means++ flavor): first the item with the
	// lowest total distance, then the item farthest from chosen medoids.
	medoids = make([]int, 0, k)
	best, bestScore := 0, tensor.Vector(dist.Row(0)).Sum()
	for i := 1; i < n; i++ {
		if s := dist.Row(i).Sum(); s < bestScore {
			best, bestScore = i, s
		}
	}
	medoids = append(medoids, best)
	for len(medoids) < k {
		farIdx, farDist := -1, -1.0
		for i := 0; i < n; i++ {
			d := minDistTo(dist, i, medoids)
			// Break exact ties randomly so duplicate topics do not bias.
			if d > farDist || (d == farDist && rng.Intn(2) == 0) {
				farIdx, farDist = i, d
			}
		}
		medoids = append(medoids, farIdx)
	}

	labels = make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		// Assignment step.
		for i := 0; i < n; i++ {
			bestG, bestD := 0, dist.At(i, medoids[0])
			for g := 1; g < len(medoids); g++ {
				if d := dist.At(i, medoids[g]); d < bestD {
					bestG, bestD = g, d
				}
			}
			labels[i] = bestG
		}
		// Update step: medoid minimizes within-group distance sum.
		changed := false
		for g := range medoids {
			var members []int
			for i, l := range labels {
				if l == g {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			bestM, bestSum := medoids[g], groupCost(dist, medoids[g], members)
			for _, m := range members {
				if s := groupCost(dist, m, members); s < bestSum {
					bestM, bestSum = m, s
				}
			}
			if bestM != medoids[g] {
				medoids[g] = bestM
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Final assignment against the converged medoids.
	for i := 0; i < n; i++ {
		bestG, bestD := 0, dist.At(i, medoids[0])
		for g := 1; g < len(medoids); g++ {
			if d := dist.At(i, medoids[g]); d < bestD {
				bestG, bestD = g, d
			}
		}
		labels[i] = bestG
	}
	return medoids, labels
}

func minDistTo(dist *tensor.Matrix, i int, medoids []int) float64 {
	best := dist.At(i, medoids[0])
	for _, m := range medoids[1:] {
		if d := dist.At(i, m); d < best {
			best = d
		}
	}
	return best
}

func groupCost(dist *tensor.Matrix, medoid int, members []int) float64 {
	var s float64
	for _, m := range members {
		s += dist.At(medoid, m)
	}
	return s
}
