package ocsvm

import (
	"fmt"
	"math"
)

// maxRouteTable caps a kernel table's length. Distances past the table
// are computed with math.Exp directly (the same value the table would
// hold), so the cap only bounds the memory a model with very long
// training sessions can make a Router allocate.
const maxRouteTable = 1 << 16

// Router scores a growing session prefix against the OC-SVMs of every
// behavior cluster at once, one action at a time: the paper's online
// routing vote.
//
// Count features are integers, so the squared distance from a prefix
// to a support vector is an exact integer, and adding one action a,
// whose count in the prefix goes from c to c+1, changes it by exactly
// 2c+1 − 2·sv[a]. A session's route state is therefore one int32
// distance per support vector, updated by one row of the action-major
// support-vector table per action. The kernel values come from a table
// tab[d] = exp(−γ·d) built with the expression Model.ScoreSparse
// evaluates, and each cluster's sum runs over its support vectors in
// ScoreSparse's order, so every score is bit-identical to ScoreSparse
// and Score on the same prefix.
//
// Memory: the route state is 4·K bytes per voting session, K the
// support vectors over all clusters, against the 16·vocab bytes of a
// PrefixStream (a 13-cluster model with K = 78 over 300 actions: 312 B
// against 4.8 KB). At K in the thousands the route state is the larger,
// and callers release it when the vote freezes.
type Router struct {
	dim      int
	k        int       // support vectors over all clusters
	svT      []int32   // svT[a*k+j]: count of action a in support vector j
	norm     []int32   // ‖sv_j‖², the distance from the empty prefix
	alpha    []float64 // dual coefficient of support vector j
	clusters []routeCluster
}

// routeCluster is one OC-SVM's slice of the concatenated support
// vectors, its offset and its kernel table.
type routeCluster struct {
	lo, hi int
	rho    float64
	gamma  float64
	tab    []float64 // shared by every cluster with the same gamma
}

// NewRouter builds the router over the per-cluster models, in cluster
// order, for prefixes of at most maxPrefix actions. Every model must
// take the same feature dimension and hold support vectors of
// non-negative integer counts, and max‖sv‖² + maxPrefix² must fit in an
// int32 (the largest distance a prefix of that length can reach).
func NewRouter(models []*Model, maxPrefix int) (*Router, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("ocsvm: router: no models")
	}
	if maxPrefix < 0 || maxPrefix > math.MaxInt32 {
		return nil, fmt.Errorf("ocsvm: router: prefix length %d out of range", maxPrefix)
	}
	r := &Router{dim: models[0].dim}
	var maxNorm int64
	for c, m := range models {
		if m.dim != r.dim {
			return nil, fmt.Errorf("ocsvm: router: model %d has %d features, model 0 has %d", c, m.dim, r.dim)
		}
		for j, sv := range m.support {
			var n int64
			for a, v := range sv {
				if !(v >= 0 && v <= math.MaxInt32 && v == math.Trunc(v)) {
					return nil, fmt.Errorf("ocsvm: router: model %d support vector %d feature %d is %v, not a non-negative integer count", c, j, a, v)
				}
				n += int64(v) * int64(v)
				if n > math.MaxInt32 {
					break
				}
			}
			maxNorm = max(maxNorm, n)
		}
		r.k += len(m.support)
	}
	bound := maxNorm + int64(maxPrefix)*int64(maxPrefix)
	if bound > math.MaxInt32 {
		return nil, fmt.Errorf("ocsvm: router: distance bound max‖sv‖² + %d² = %d overflows int32", maxPrefix, bound)
	}

	r.svT = make([]int32, r.dim*r.k)
	r.norm = make([]int32, 0, r.k)
	r.alpha = make([]float64, 0, r.k)
	tabs := make(map[uint64][]float64)
	j := 0
	for _, m := range models {
		rc := routeCluster{lo: j, hi: j + len(m.support), rho: m.rho, gamma: m.gamma}
		for i, sv := range m.support {
			var n int32
			for a, v := range sv {
				r.svT[a*r.k+j] = int32(v)
				n += int32(v) * int32(v)
			}
			r.norm = append(r.norm, n)
			r.alpha = append(r.alpha, m.alphas[i])
			j++
		}
		key := math.Float64bits(m.gamma)
		if tabs[key] == nil {
			tab := make([]float64, min(bound+1, maxRouteTable))
			for d := range tab {
				tab[d] = math.Exp(-m.gamma * float64(d))
			}
			tabs[key] = tab
		}
		rc.tab = tabs[key]
		r.clusters = append(r.clusters, rc)
	}
	return r, nil
}

// Start returns a new route state: the distance from the empty prefix
// to every support vector. The caller owns it.
func (r *Router) Start() []int32 { return append([]int32(nil), r.norm...) }

// Observe folds one action into the route state dist of a prefix in
// which the action occurred prior times so far, and returns the cluster
// with the highest score on the extended prefix (the lowest index among
// equal scores). It reads no other state: prior is the caller's count.
func (r *Router) Observe(dist []int32, action, prior int) (int, error) {
	if action < 0 || action >= r.dim {
		return 0, fmt.Errorf("ocsvm: route action %d outside vocab %d", action, r.dim)
	}
	if len(dist) != r.k {
		return 0, fmt.Errorf("ocsvm: route state has %d distances, want %d", len(dist), r.k)
	}
	row := r.svT[action*r.k : (action+1)*r.k]
	inc := int32(2*prior + 1)
	best, bestS := 0, math.Inf(-1)
	for c := range r.clusters {
		if s := r.step(c, dist, row, inc); s > bestS {
			best, bestS = c, s
		}
	}
	return best, nil
}

// step moves cluster c's distances by inc − 2·row[j] and returns the
// cluster's decision value at the moved state: the sum Model.ScoreSparse
// computes, term for term and in the same order. A zero row and inc
// leave the state as it is and only score it.
func (r *Router) step(c int, dist, row []int32, inc int32) float64 {
	rc := &r.clusters[c]
	alpha := r.alpha[rc.lo:rc.hi]
	ds := dist[rc.lo:rc.hi]
	ds = ds[:len(alpha)]
	rw := row[rc.lo:rc.hi]
	rw = rw[:len(alpha)]
	var s float64
	for j, a := range alpha {
		d := ds[j] + inc - 2*rw[j]
		ds[j] = d
		var k float64
		if uint32(d) < uint32(len(rc.tab)) {
			k = rc.tab[d]
		} else {
			k = math.Exp(-rc.gamma * float64(d))
		}
		s += a * k
	}
	return s - rc.rho
}
