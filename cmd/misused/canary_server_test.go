package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/rollout"
)

// controlLine sends one control command and decodes the single reply
// line into out, failing on an {"error":...} line unless out is an
// *ErrorReply.
func controlLine(t *testing.T, conn net.Conn, sc *bufio.Scanner, cmd string, out any) {
	t.Helper()
	if _, err := conn.Write([]byte("{\"cmd\":\"" + cmd + "\"}\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no reply for %q: %v", cmd, sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), out); err != nil {
		t.Fatalf("reply for %q: %q: %v", cmd, sc.Text(), err)
	}
}

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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	sc := bufio.NewScanner(conn)

	// Idle controller: status says inactive, decisions are errors.
	var cr CanaryReply
	controlLine(t, conn, sc, "canary", &cr)
	if cr.Canary.Active || cr.Canary.ServingVersion != 1 {
		t.Fatalf("idle canary status: %+v", cr.Canary)
	}
	var er ErrorReply
	controlLine(t, conn, sc, "canary-promote", &er)
	if !strings.Contains(er.Error, "no canary") {
		t.Fatalf("promote with nothing pending: %+v", er)
	}

	// Reload with a controller publishes a canary instead of swapping.
	var rr ReloadReply
	controlLine(t, conn, sc, "reload", &rr)
	if !rr.Reload.Canary || rr.Reload.Version != 2 || rr.Reload.Fraction != 0.25 {
		t.Fatalf("canary reload reply: %+v", rr.Reload)
	}
	if reg.Current().Version != 1 {
		t.Fatalf("canary reload swapped serving to %d", reg.Current().Version)
	}
	controlLine(t, conn, sc, "canary", &cr)
	if !cr.Canary.Active || cr.Canary.CandidateVersion != 2 || cr.Canary.CandidateDir != dir {
		t.Fatalf("pending canary status: %+v", cr.Canary)
	}

	// A second reload while the rollout is undecided is refused.
	controlLine(t, conn, sc, "reload", &er)
	if !strings.Contains(er.Error, "pending") {
		t.Fatalf("reload during pending rollout: %+v", er)
	}

	// Operator rollback: verdict comes back, and the model directory
	// itself is quarantined (the reload-as-canary recovery case).
	var vr CanaryVerdictReply
	controlLine(t, conn, sc, "canary-rollback", &vr)
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
	controlLine(t, conn, sc, "reload", &er)
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(conn)
	for _, cmd := range []string{"canary", "canary-promote", "canary-rollback"} {
		var er ErrorReply
		controlLine(t, conn, sc, cmd, &er)
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
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))

			var rr ReloadReply
			controlLine(t, conn, bufio.NewScanner(conn), "reload", &rr)
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
		})
	}
}
