package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/rollout"
)

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
			Tokens:      internAll(interner, s.Actions),
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
	// 80 candidates at stride 4: positions 3,7,...,79 are held out.
	if rep.HoldoutNormals != 20 {
		t.Fatalf("held out %d of %d candidates, want 20 (one quarter)", rep.HoldoutNormals, rep.Candidates)
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

// TestCycleCountersPartition replays one canaried auto-cycle, then a
// manual cycle that fails because that canary is still pending: the
// status counts both cycles, each under one outcome, and its outcome
// counters sum to its cycle count.
func TestCycleCountersPartition(t *testing.T) {
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
	adapter, err := New(reg, Config{
		MinSessions:    40,
		MinPerCluster:  2,
		GuardrailDelta: 0.3,
		AutoCycle:      true,
		Canary:         ctrl,
		Seed:           5,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	interner := actionlog.NewInterner(det.Vocabulary())
	clusters := det.ClusterCount()
	normals := freshNormals(t, 81, "cc")[:80]
	end := func(i int) {
		s := normals[i]
		adapter.OnSessionEnd(core.SessionSummary{
			SessionID:   s.ID,
			Cluster:     i % clusters,
			MinSmoothed: 0.5,
			Observed:    len(s.Actions),
			Tokens:      internAll(interner, s.Actions),
			Snap:        interner.Snapshot(),
		})
	}
	for i := 0; i < len(normals)-1; i++ {
		end(i)
	}
	// A drift signal is pending when the last session ends: the
	// session-end hook starts the cycle.
	adapter.mu.Lock()
	adapter.pending = true
	adapter.mu.Unlock()
	end(len(normals) - 1)
	deadline := time.Now().Add(2 * time.Minute)
	for st := adapter.Status(); st.Cycles == 0 || st.CycleRunning; st = adapter.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("auto-cycle did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := adapter.Status(); st.Canaried != 1 || st.LastCycle == nil || st.LastCycle.Reason != "drift-signal" {
		t.Fatalf("auto-cycle was not canaried: %+v", st)
	}
	if _, err := adapter.Cycle("manual"); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("cycle during pending rollout = %v", err)
	}
	st := adapter.Status()
	if st.Cycles != 2 || st.Swaps != 0 || st.Refusals != 0 || st.Canaried != 1 || st.Failed != 1 {
		t.Fatalf("cycles %d = %d swapped + %d refused + %d canaried + %d failed; want 2 = 0 + 0 + 1 + 1",
			st.Cycles, st.Swaps, st.Refusals, st.Canaried, st.Failed)
	}
	if st.Swaps+st.Refusals+st.Canaried+st.Failed != st.Cycles {
		t.Fatalf("outcome counters do not partition the cycles: %+v", st)
	}
}

// TestCycleRefusedInstallRemovesStaging: a cycle whose install is
// refused — here an operator published a canary straight through the
// registry, which a controller-less adapter cannot see before it swaps —
// fails and leaves no gen-pending-* staging directory behind.
func TestCycleRefusedInstallRemovesStaging(t *testing.T) {
	_, det, _ := simSetup(t)
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	adapter, err := New(reg, Config{
		MinSessions:    40,
		MinPerCluster:  2,
		GuardrailDelta: 0.3,
		ModelRoot:      root,
		Seed:           5,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	interner := actionlog.NewInterner(det.Vocabulary())
	clusters := det.ClusterCount()
	for i, s := range freshNormals(t, 81, "st")[:80] {
		adapter.OnSessionEnd(core.SessionSummary{
			SessionID:   s.ID,
			Cluster:     i % clusters,
			MinSmoothed: 0.5,
			Observed:    len(s.Actions),
			Tokens:      internAll(interner, s.Actions),
			Snap:        interner.Snapshot(),
		})
	}
	if _, err := reg.PublishCanary(det, nil, "operator", 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := adapter.Cycle("manual"); err == nil || !strings.Contains(err.Error(), "canary") {
		t.Fatalf("cycle over a pending canary = %v, want the registry's refusal", err)
	}
	left, err := filepath.Glob(filepath.Join(root, "gen-pending-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("refused cycle left staging directories %v", left)
	}
}
