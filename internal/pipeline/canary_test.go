package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/rollout"
)

// TestHoldoutStrideRounding is the regression test for the holdout
// split: the stride must be the nearest integer to 1/HoldoutFrac, not
// its truncation — int(1/0.4) = 2 held out HALF the buffer where the
// operator asked for 40%.
func TestHoldoutStrideRounding(t *testing.T) {
	cases := []struct {
		frac float64
		want int
	}{
		{0.5, 2},
		{0.4, 3}, // the regression: truncation yielded 2
		{0.34, 3},
		{0.3, 3},
		{0.25, 4},
		{0.2, 5},
		{0.1, 10},
		{0.05, 20},
		{0.9, 2}, // stride never drops below 2: training must keep data
	}
	for _, tc := range cases {
		if got := holdoutStride(tc.frac); got != tc.want {
			t.Errorf("holdoutStride(%v) = %d, want %d", tc.frac, got, tc.want)
		}
	}
	// Pin the realized fraction for the regression case: over a
	// 120-session buffer, HoldoutFrac 0.4 holds out exactly a third —
	// the nearest realizable fraction — never half.
	every := holdoutStride(0.4)
	held := 0
	for i := 0; i < 120; i++ {
		if i%every == every-1 {
			held++
		}
	}
	if realized := float64(held) / 120; realized != 1.0/3 {
		t.Fatalf("realized holdout fraction %v for HoldoutFrac 0.4, want 1/3", realized)
	}
}

// TestCycleCanaryPublish wires the adaptation pipeline to a rollout
// controller: a passing cycle must publish its generation to the canary
// slot — serving untouched, candidate directory recorded with the
// controller — instead of swapping, and further cycles are refused
// until the rollout is decided.
func TestCycleCanaryPublish(t *testing.T) {
	_, det, _ := simSetup(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := rollout.NewController(reg, rollout.Config{
		Fraction:    0.3,
		MinSessions: 500, // comparator must not decide during this test
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	adapter, err := New(reg, Config{
		MinSessions:    40,
		MinPerCluster:  2,
		HoldoutFrac:    0.4, // stride 3 via the rounding fix
		GuardrailDelta: 0.3,
		ModelRoot:      root,
		Canary:         ctrl,
		Seed:           5,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	interner := actionlog.NewInterner(det.Vocabulary())
	clusters := det.ClusterCount()
	for i, s := range freshNormals(t, 81, "cp")[:80] {
		adapter.OnSessionEnd(core.SessionSummary{
			SessionID:   s.ID,
			Cluster:     i % clusters,
			MinSmoothed: 0.5,
			Observed:    len(s.Actions),
			Tokens:      interner.InternAll(s.Actions),
			Snap:        interner.Snapshot(),
		})
	}
	rep, err := adapter.Cycle("manual")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canaried || rep.Swapped || rep.Refused != "" {
		t.Fatalf("cycle with canary controller: %+v", rep)
	}
	// 80 candidates at stride 3: positions 2,5,...,79 are held out.
	if rep.HoldoutNormals != 26 {
		t.Fatalf("held out %d of %d candidates at HoldoutFrac 0.4, want 26 (one third)", rep.HoldoutNormals, rep.Candidates)
	}
	if reg.Current().Version != 1 {
		t.Fatalf("canaried cycle moved serving to version %d", reg.Current().Version)
	}
	cmv, frac := reg.Canary()
	if cmv == nil || cmv.Version != rep.NewVersion || frac != 0.3 {
		t.Fatalf("canary slot after cycle: %v %v (report %+v)", cmv, frac, rep)
	}
	if cmv.Monitor == nil {
		t.Fatal("candidate generation carries no recalibrated floors")
	}
	// The generation was persisted under its versioned name, verifies,
	// and the controller knows the directory to quarantine.
	wantDir := filepath.Join(root, fmt.Sprintf("gen-%04d", rep.NewVersion))
	if rep.ModelDir != wantDir {
		t.Fatalf("model dir %q, want %q", rep.ModelDir, wantDir)
	}
	if _, err := core.VerifyArtifact(rep.ModelDir); err != nil {
		t.Fatalf("published generation fails verification: %v", err)
	}
	if _, err := os.Stat(filepath.Join(rep.ModelDir, core.ThresholdsFile)); err != nil {
		t.Fatalf("published generation missing thresholds: %v", err)
	}
	st := ctrl.Status()
	if !st.Active || st.CandidateDir != rep.ModelDir {
		t.Fatalf("controller status after publish: %+v", st)
	}
	if as := adapter.Status(); as.Swaps != 0 || as.Cycles != 1 {
		t.Fatalf("adapter counted a canaried cycle as a swap: %+v", as)
	}

	// No new cycle while the rollout is undecided.
	if _, err := adapter.Cycle("manual"); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("cycle during pending rollout = %v", err)
	}

	// Roll the candidate back: its directory is quarantined with the
	// verdict, serving stays on version 1, and cycles may run again.
	v, err := ctrl.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	wantQuarantine := filepath.Join(root, "quarantine", filepath.Base(wantDir))
	if v.QuarantinedDir != wantQuarantine {
		t.Fatalf("quarantined to %q, want %q", v.QuarantinedDir, wantQuarantine)
	}
	if _, err := os.Stat(filepath.Join(wantQuarantine, rollout.VerdictFile)); err != nil {
		t.Fatalf("verdict not recorded in quarantine: %v", err)
	}
	if reg.Current().Version != 1 {
		t.Fatal("rollback moved the serving generation")
	}
	if _, err := adapter.Cycle("manual"); err == nil || !strings.Contains(err.Error(), "candidate sessions") {
		// The buffer was cleared by the first cycle; the point is that
		// the pending-rollout refusal is gone.
		t.Fatalf("cycle after rollback = %v", err)
	}
}
