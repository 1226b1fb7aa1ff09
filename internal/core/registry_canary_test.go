package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestRegistryCanaryLifecycle walks the staged-rollout state machine:
// publish pins a deterministic fraction of new sessions to the
// candidate, swap is refused while a candidate is pending, rollback
// burns the candidate's version number, promote makes it serving.
func TestRegistryCanaryLifecycle(t *testing.T) {
	detA := smallNGramDetector(t)
	detB := smallNGramDetector(t)
	reg, err := NewRegistry(detA)
	if err != nil {
		t.Fatal(err)
	}

	// Nothing pending: decisions fail, Assign serves everyone.
	if mv, frac := reg.Canary(); mv != nil || frac != 0 {
		t.Fatalf("fresh registry reports a canary: %v %v", mv, frac)
	}
	if _, err := reg.PromoteCanary(); err == nil {
		t.Fatal("promote without a pending canary must fail")
	}
	if _, err := reg.RollbackCanary(); err == nil {
		t.Fatal("rollback without a pending canary must fail")
	}
	if mv, canary := reg.Assign("any-session"); canary || mv.Version != 1 {
		t.Fatalf("assign without canary = v%d canary=%v", mv.Version, canary)
	}

	// Guardrails on the published candidate.
	for _, frac := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := reg.PublishCanary(detB, nil, "cand", frac); err == nil {
			t.Fatalf("fraction %v accepted", frac)
		}
	}
	bad := DefaultMonitorConfig()
	bad.LikelihoodFloor = math.NaN()
	if _, err := reg.PublishCanary(detB, &bad, "cand", 0.25); err == nil {
		t.Fatal("non-finite canary monitor accepted")
	}
	if _, err := reg.PublishCanary(nil, nil, "cand", 0.25); err == nil {
		t.Fatal("nil canary detector accepted")
	}

	cand, err := reg.PublishCanary(detB, nil, "cand", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Version != 2 || cand.Det != detB {
		t.Fatalf("candidate generation = %+v", cand)
	}
	if reg.Current().Version != 1 {
		t.Fatal("publishing a canary moved the serving generation")
	}
	if mv, frac := reg.Canary(); mv != cand || frac != 0.25 {
		t.Fatalf("canary slot = %v %v", mv, frac)
	}

	// Assign is deterministic per session ID and lands roughly the
	// published fraction of sessions on the candidate.
	const total = 2000
	onCanary := 0
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("session-%04d", i)
		mv, canary := reg.Assign(id)
		mv2, canary2 := reg.Assign(id)
		if mv != mv2 || canary != canary2 {
			t.Fatalf("assign of %q is not deterministic", id)
		}
		if canary {
			if mv != cand {
				t.Fatalf("canary assignment returned generation %d", mv.Version)
			}
			onCanary++
		} else if mv.Version != 1 {
			t.Fatalf("serving assignment returned generation %d", mv.Version)
		}
	}
	got := float64(onCanary) / total
	if got < 0.18 || got > 0.32 {
		t.Fatalf("realized canary fraction %.3f far from published 0.25", got)
	}

	// A plain swap while a candidate is pending would race the rollout.
	if _, err := reg.Swap(detA, nil, "x"); err == nil || !strings.Contains(err.Error(), "canary") {
		t.Fatalf("swap during pending canary = %v", err)
	}

	// Rollback: serving untouched, slot cleared, version 2 burned.
	dropped, err := reg.RollbackCanary()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != cand {
		t.Fatal("rollback returned a different generation")
	}
	if reg.Current().Version != 1 {
		t.Fatal("rollback moved the serving generation")
	}
	if mv, _ := reg.Canary(); mv != nil {
		t.Fatal("rollback left the canary slot occupied")
	}
	next, err := reg.Swap(detB, nil, "retrain")
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != 3 {
		t.Fatalf("post-rollback swap got version %d; rolled-back version 2 must never be recycled", next.Version)
	}

	// Promote: the candidate becomes serving atomically.
	cand2, err := reg.PublishCanary(detA, nil, "cand2", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cand2.Version != 4 {
		t.Fatalf("second candidate version = %d", cand2.Version)
	}
	prom, err := reg.PromoteCanary()
	if err != nil {
		t.Fatal(err)
	}
	if prom != cand2 || reg.Current() != cand2 {
		t.Fatal("promotion did not install the candidate as serving")
	}
	if mv, _ := reg.Canary(); mv != nil {
		t.Fatal("promotion left the canary slot occupied")
	}
	if mv, canary := reg.Assign("after-promote"); canary || mv != cand2 {
		t.Fatal("assign after promotion must serve the promoted generation")
	}
}

// TestSessionFractionUniform sanity-checks the session-ID hash: the
// assignment fractions must be spread over [0,1), not clustered, so any
// published fraction gets close to its share of traffic.
func TestSessionFractionUniform(t *testing.T) {
	var buckets [10]int
	const n = 10000
	for i := 0; i < n; i++ {
		f := sessionFraction(fmt.Sprintf("sess-%d", i))
		if f < 0 || f >= 1 {
			t.Fatalf("sessionFraction out of [0,1): %v", f)
		}
		buckets[int(f*10)]++
	}
	for b, c := range buckets {
		if c < n/20 || c > n/5 {
			t.Fatalf("bucket %d holds %d of %d hashes; hash badly skewed", b, c, n)
		}
	}
}
