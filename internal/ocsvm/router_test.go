package ocsvm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// countVectors samples n bag-of-action count vectors over dim actions,
// each from a session of 1..maxLen actions.
func countVectors(rng *rand.Rand, n, dim, maxLen int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, dim)
		for k := 1 + rng.Intn(maxLen); k > 0; k-- {
			x[rng.Intn(dim)]++
		}
		out[i] = x
	}
	return out
}

// routerMismatch feeds session to the router one action at a time and
// compares every prefix against the per-model reference: each cluster's
// router score must carry the same bits as ScoreSparse and Score on the
// prefix's count vector, and Observe's cluster must be the strict-'>'
// argmax of those scores. It returns the first difference, or "", and
// the cluster the whole session routed to at its last action.
func routerMismatch(r *Router, models []*Model, session []int) (route int, msg string) {
	f, err := NewFeaturizer(models[0].Dim())
	if err != nil {
		return 0, err.Error()
	}
	stream := f.Stream()
	dist, still := r.Start(), make([]int32, r.k)
	for i, a := range session {
		got, err := r.Observe(dist, a, countOf(session[:i], a))
		if err != nil {
			return 0, err.Error()
		}
		x, err := stream.Observe(a)
		if err != nil {
			return 0, err.Error()
		}
		want, wantS := 0, math.Inf(-1)
		for c, m := range models {
			sparse, err := m.ScoreSparse(x, stream.Support())
			if err != nil {
				return 0, err.Error()
			}
			dense, err := m.Score(x)
			if err != nil {
				return 0, err.Error()
			}
			rs := r.step(c, dist, still, 0)
			if math.Float64bits(rs) != math.Float64bits(sparse) || math.Float64bits(rs) != math.Float64bits(dense) {
				return 0, fmt.Sprintf("prefix %v cluster %d: router %v, ScoreSparse %v, Score %v", session[:i+1], c, rs, sparse, dense)
			}
			if sparse > wantS {
				want, wantS = c, sparse
			}
		}
		if got != want {
			return 0, fmt.Sprintf("prefix %v: router routes to %d, ScoreSparse argmax is %d", session[:i+1], got, want)
		}
		route = got
	}
	return route, ""
}

// TestRouterMatchesScoreSparse pins the routing vote's exactness: on
// count features the router's integer distances and kernel tables give
// every cluster's score bit for bit, and the same argmax, as the
// floating-point ScoreSparse and Score, on every prefix up to the vote
// length. The models cover a long-session support vector (whose norm
// runs past the kernel table's cap), single-SV clusters, two gammas
// (two tables), and a duplicated cluster whose scores always tie.
func TestRouterMatchesScoreSparse(t *testing.T) {
	const dim, vote = 12, 15
	rng := rand.New(rand.NewSource(31))
	var models []*Model
	train := func(xs [][]float64, gamma float64) {
		t.Helper()
		cfg := DefaultConfig(int64(len(models)))
		cfg.Nu = 0.3
		cfg.Gamma = gamma
		m, err := Train(xs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	train(countVectors(rng, 40, dim, 20), 0)
	train(countVectors(rng, 40, dim, 8), 0.05)
	long := make([]float64, dim)
	long[3], long[7] = 300, 40 // ‖sv‖² = 91,600 > maxRouteTable
	train([][]float64{long}, 0)
	train(countVectors(rng, 1, dim, 15), 0)
	train(append(countVectors(rng, 25, dim, 15), long), 0.05)
	models = append(models, models[0]) // ties cluster 0 on every prefix

	r, err := NewRouter(models, vote)
	if err != nil {
		t.Fatal(err)
	}
	if got := models[2].SupportVectorCount(); got != 1 {
		t.Fatalf("single-sample cluster has %d support vectors, want 1", got)
	}
	for _, rc := range r.clusters {
		if len(rc.tab) != maxRouteTable {
			t.Fatalf("kernel table has %d entries, want the %d cap (the long support vector sets the bound)", len(rc.tab), maxRouteTable)
		}
	}
	if &r.clusters[0].tab[0] != &r.clusters[2].tab[0] || &r.clusters[0].tab[0] == &r.clusters[1].tab[0] {
		t.Fatal("want one kernel table per distinct gamma")
	}

	sessions := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2},
		{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
		{7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7},
	}
	for i := 0; i < 200; i++ {
		s := make([]int, vote)
		for k := range s {
			s[k] = rng.Intn(dim)
		}
		sessions = append(sessions, s)
	}
	topTies := 0
	for _, s := range sessions {
		route, msg := routerMismatch(r, models, s)
		if msg != "" {
			t.Fatal(msg)
		}
		if route == 0 {
			topTies++ // cluster 5 scored exactly as high
		}
	}
	if topTies == 0 {
		t.Fatal("the duplicated cluster never tied for the top score; the tie-break went untested")
	}

	if _, err := r.Observe(r.Start(), dim, 0); err == nil {
		t.Fatal("an action outside the vocabulary must fail")
	}
	if _, err := r.Observe(r.Start()[1:], 0, 0); err == nil {
		t.Fatal("a route state of the wrong length must fail")
	}
}

func countOf(s []int, a int) int {
	n := 0
	for _, b := range s {
		if b == a {
			n++
		}
	}
	return n
}

// TestNewRouterRefuses pins the models the router cannot route exactly:
// support vectors that are not non-negative integer counts, and
// distances that overflow int32.
func TestNewRouterRefuses(t *testing.T) {
	one := func(sv ...float64) *Model {
		m, err := Train([][]float64{sv}, DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name      string
		models    []*Model
		maxPrefix int
		want      string
	}{
		{"fractional count", []*Model{one(0.5, 1)}, 15, "not a non-negative integer count"},
		{"negative count", []*Model{one(-1, 1)}, 15, "not a non-negative integer count"},
		{"norm overflows int32", []*Model{one(46341, 0)}, 15, "overflows int32"},
		{"norm plus prefix overflows int32", []*Model{one(46340, 0)}, 300, "overflows int32"},
		{"dimension mismatch", []*Model{one(1, 2), one(1, 2, 3)}, 15, "features"},
		{"no models", nil, 15, "no models"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRouter(tc.models, tc.maxPrefix)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewRouter error %v, want one containing %q", err, tc.want)
			}
		})
	}
	if _, err := NewRouter([]*Model{one(46340, 0)}, 15); err != nil {
		t.Fatalf("a bound just inside int32 must build: %v", err)
	}
}

// FuzzRouterMatchesScoreSparse generalizes TestRouterMatchesScoreSparse:
// the seed draws up to four clusters of random count vectors (some with
// an explicit gamma), dimByte the vocabulary size, and session the
// actions of a vote window.
func FuzzRouterMatchesScoreSparse(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, dimByte uint8, session []byte) {
		const vote = 15
		dim := 1 + int(dimByte)%16
		rng := rand.New(rand.NewSource(seed))
		var models []*Model
		for c := 1 + rng.Intn(4); c > 0; c-- {
			cfg := DefaultConfig(seed)
			cfg.Nu = 0.1 + 0.8*rng.Float64()
			if rng.Intn(2) == 0 {
				cfg.Gamma = rng.Float64()
			}
			m, err := Train(countVectors(rng, 1+rng.Intn(12), dim, 1+rng.Intn(40)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			models = append(models, m)
		}
		r, err := NewRouter(models, vote)
		if err != nil {
			t.Fatal(err)
		}
		actions := make([]int, 0, vote)
		for _, b := range session[:min(len(session), vote)] {
			actions = append(actions, int(b)%dim)
		}
		if _, msg := routerMismatch(r, models, actions); msg != "" {
			t.Fatal(msg)
		}
	})
}
