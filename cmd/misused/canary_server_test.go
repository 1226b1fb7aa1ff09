package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/rollout"
	"misusedetect/internal/wire"
)

// TestServerCanaryCommands covers the staged-rollout wire surface: with
// a rollout controller wired in, reload publishes the model directory
// as a canary candidate, "canary" reports the pending rollout, and
// "canary-rollback" quarantines the directory — the reload-as-canary
// path the OPERATIONS.md runbook describes.
func TestServerCanaryCommands(t *testing.T) {
	det, _ := tinyDetector(t)
	dir := filepath.Join(t.TempDir(), "model")
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry(t, det)
	ctrl, err := rollout.NewController(reg, rollout.Config{Fraction: 0.25, MinSessions: 500, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(reg, ServerConfig{
		Listen:   "127.0.0.1:0",
		ModelDir: dir,
		Engine: core.EngineConfig{
			IdleExpiry:   time.Minute,
			Monitor:      core.DefaultMonitorConfig(),
			OnSessionEnd: ctrl.OnSessionEnd,
			Logf:         t.Logf,
		},
		Canary: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	c := dial(t, srv)

	// Idle controller: status says inactive, decisions are errors.
	var cr wire.CanaryReply
	reply(t, c, "canary", &cr)
	if cr.Canary.Active || cr.Canary.ServingVersion != 1 {
		t.Fatalf("idle canary status: %+v", cr.Canary)
	}
	var er wire.ErrorReply
	reply(t, c, "canary-promote", &er)
	if !strings.Contains(er.Error, "no canary") {
		t.Fatalf("promote with nothing pending: %+v", er)
	}

	// Reload with a controller publishes a canary instead of swapping.
	var rr wire.ReloadReply
	reply(t, c, "reload", &rr)
	if !rr.Reload.Canary || rr.Reload.Version != 2 || rr.Reload.Fraction != 0.25 {
		t.Fatalf("canary reload reply: %+v", rr.Reload)
	}
	if reg.Current().Version != 1 {
		t.Fatalf("canary reload swapped serving to %d", reg.Current().Version)
	}
	reply(t, c, "canary", &cr)
	if !cr.Canary.Active || cr.Canary.CandidateVersion != 2 || cr.Canary.CandidateDir != dir {
		t.Fatalf("pending canary status: %+v", cr.Canary)
	}

	// A second reload while the rollout is undecided is refused.
	reply(t, c, "reload", &er)
	if !strings.Contains(er.Error, "pending") {
		t.Fatalf("reload during pending rollout: %+v", er)
	}

	// Operator rollback: verdict comes back, and the model directory
	// itself is quarantined (the reload-as-canary recovery case).
	var vr wire.CanaryVerdictReply
	reply(t, c, "canary-rollback", &vr)
	if vr.Verdict == nil || vr.Verdict.Decision != "rollback" || !strings.Contains(vr.Verdict.Reason, "operator rollback") {
		t.Fatalf("rollback verdict: %+v", vr.Verdict)
	}
	wantDest := filepath.Join(filepath.Dir(dir), "quarantine", filepath.Base(dir))
	if vr.Verdict.QuarantinedDir != wantDest {
		t.Fatalf("quarantined dir %q, want %q", vr.Verdict.QuarantinedDir, wantDest)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("model dir still in place after rollback quarantine")
	}
	if _, err := os.Stat(filepath.Join(wantDest, rollout.VerdictFile)); err != nil {
		t.Fatalf("verdict not recorded in quarantine: %v", err)
	}
	if reg.Current().Version != 1 {
		t.Fatal("rollback moved the serving generation")
	}

	// With the directory quarantined, the next reload fails verification
	// — the integrity gate, not a half-loaded model.
	reply(t, c, "reload", &er)
	if er.Error == "" {
		t.Fatal("reload of a quarantined model dir must fail")
	}
}

// TestServerCanaryDisabled: without -canary-frac the canary commands
// answer with a descriptive error line.
func TestServerCanaryDisabled(t *testing.T) {
	det, _ := tinyDetector(t)
	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen: "127.0.0.1:0",
		Engine: core.EngineConfig{IdleExpiry: time.Minute, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	c := dial(t, srv)
	for _, cmd := range []string{"canary", "canary-promote", "canary-rollback"} {
		var er wire.ErrorReply
		reply(t, c, cmd, &er)
		if !strings.Contains(er.Error, "-canary-frac") {
			t.Fatalf("%s reply %+v does not point at -canary-frac", cmd, er)
		}
	}
}

// TestServerReloadInstallsThresholds: a reload of a model directory that
// carries thresholds.json installs the fragment with the generation, in
// both reload modes — on the serving generation with a direct swap, on
// the candidate with a rollout controller.
func TestServerReloadInstallsThresholds(t *testing.T) {
	det, _ := tinyDetector(t)
	for _, tc := range []struct {
		name   string
		canary bool
	}{
		{"direct", false},
		{"canary", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "model")
			if err := det.Save(dir); err != nil {
				t.Fatal(err)
			}
			fragment := core.DefaultMonitorConfig()
			fragment.LikelihoodFloor = 0.123
			if err := core.SaveMonitorConfig(filepath.Join(dir, core.ThresholdsFile), fragment); err != nil {
				t.Fatal(err)
			}
			reg := newRegistry(t, det)
			cfg := ServerConfig{
				Listen:   "127.0.0.1:0",
				ModelDir: dir,
				Engine:   core.EngineConfig{IdleExpiry: time.Minute, Monitor: core.DefaultMonitorConfig(), Logf: t.Logf},
			}
			if tc.canary {
				ctrl, err := rollout.NewController(reg, rollout.Config{Fraction: 0.25, MinSessions: 500, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Canary = ctrl
				cfg.Engine.OnSessionEnd = ctrl.OnSessionEnd
			}
			srv, err := NewServer(reg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			shutdown := startServer(t, srv)
			defer shutdown()
			c := dial(t, srv)
			var rr wire.ReloadReply
			reply(t, c, "reload", &rr)
			if rr.Reload.Version != 2 || rr.Reload.Canary != tc.canary {
				t.Fatalf("reload reply: %+v", rr.Reload)
			}
			installed := reg.Current()
			if tc.canary {
				installed, _ = reg.Canary()
				if reg.Current().Version != 1 {
					t.Fatalf("canary reload moved serving to version %d", reg.Current().Version)
				}
			}
			if installed == nil || installed.Version != 2 {
				t.Fatalf("reloaded generation = %+v", installed)
			}
			if installed.Monitor == nil || installed.Monitor.LikelihoodFloor != 0.123 {
				t.Fatalf("reloaded generation monitor = %+v, want the directory's thresholds", installed.Monitor)
			}
			if tc.canary {
				// An operator promotion serves the candidate fleet-wide.
				var vr wire.CanaryVerdictReply
				reply(t, c, "canary-promote", &vr)
				if vr.Verdict == nil || vr.Verdict.Decision != "promote" || reg.Current().Version != 2 {
					t.Fatalf("promote verdict %+v, serving version %d", vr.Verdict, reg.Current().Version)
				}
			}
		})
	}
}
