package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
	"misusedetect/internal/wire"
)

// tinyDetector trains a minimal two-behavior detector for server tests.
func tinyDetector(t *testing.T) (*core.Detector, []*actionlog.Session) {
	t.Helper()
	names := []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}
	vocab, err := actionlog.NewVocabulary(names)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var sessions []*actionlog.Session
	for c := 0; c < 2; c++ {
		for i := 0; i < 25; i++ {
			n := 6 + rng.Intn(6)
			actions := make([]string, n)
			for j := range actions {
				actions[j] = names[c*4+j%4]
			}
			sessions = append(sessions, &actionlog.Session{
				ID: names[c*4] + "-sess", User: "u", Actions: actions, Cluster: c,
			})
		}
	}
	clusters, err := core.GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ScaledConfig(vocab.Size(), 2, 12, 20, 1)
	cfg.LM.Trainer.LearningRate = 0.01
	cfg.LM.Network.DropoutRate = 0
	cfg.RouteVoteActions = 5
	det, err := core.TrainDetector(cfg, vocab, clusters, nil)
	if err != nil {
		t.Fatal(err)
	}
	return det, sessions
}

// newRegistry wraps det in a fresh single-generation registry, the
// form NewServer takes.
func newRegistry(t *testing.T, det *core.Detector) *core.Registry {
	t.Helper()
	reg, err := core.NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// startServer runs srv.Serve in the background and returns a shutdown
// func that asserts a clean exit.
func startServer(t *testing.T, srv *Server) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	return func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// dial connects a wire client to srv, closed when the test ends.
func dial(t *testing.T, srv *Server) *wire.Client {
	t.Helper()
	c, err := wire.Dial(srv.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustSync is Client.Sync, failing the test on an error.
func mustSync(t *testing.T, c *wire.Client) ([]Alarm, core.EngineStats) {
	t.Helper()
	alarms, st, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	return alarms, st
}

// reply runs one control command and decodes its reply line into the
// zeroed *out strictly: the line has no field out's type lacks, and out
// re-encodes to the very bytes the daemon wrote, so the wire types are
// the protocol. An error reply is expected exactly when out is a
// *wire.ErrorReply.
func reply(t *testing.T, c *wire.Client, cmd string, out any) {
	t.Helper()
	line, err := c.Command(cmd)
	if _, wantErr := out.(*wire.ErrorReply); line == nil || (err != nil) != wantErr {
		t.Fatalf("%s: reply %q, err %v", cmd, line, err)
	}
	reflect.ValueOf(out).Elem().SetZero()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("%s: reply %q does not decode into %T: %v", cmd, line, out, err)
	}
	if b, err := json.Marshal(out); err != nil || !bytes.Equal(b, line) {
		t.Fatalf("%s: reply %q re-encodes as %q (%v)", cmd, line, b, err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	det, _ := tinyDetector(t)
	if _, err := NewServer(nil, ServerConfig{Listen: "127.0.0.1:0", Engine: core.EngineConfig{IdleExpiry: time.Minute}}); err == nil {
		t.Fatal("nil registry must fail")
	}
	if _, err := NewServer(newRegistry(t, det), ServerConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("zero IdleExpiry must fail")
	}
	if _, err := NewServer(newRegistry(t, det), ServerConfig{Listen: "256.0.0.1:bad", Engine: core.EngineConfig{IdleExpiry: time.Minute}}); err == nil {
		t.Fatal("bad listen address must fail")
	}
	if _, err := NewServer(newRegistry(t, det), ServerConfig{Listen: "127.0.0.1:0", Engine: core.EngineConfig{IdleExpiry: time.Minute, Shards: -3}}); err == nil {
		t.Fatal("negative shard count must fail")
	}
}

func TestServerDetectsAnomalousStream(t *testing.T) {
	det, sessions := tinyDetector(t)
	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen: "127.0.0.1:0",
		Engine: core.EngineConfig{IdleExpiry: time.Minute, Shards: 3, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	c := dial(t, srv)

	// A normal session first.
	base := time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)
	for i, a := range sessions[0].Actions {
		ev := actionlog.Event{Time: base.Add(time.Duration(i) * time.Second), User: "alice", SessionID: "normal-1", Action: a}
		if err := c.SendEvent(&ev); err != nil {
			t.Fatal(err)
		}
	}
	// Then an anomalous session: normal prefix, then noise.
	rng := rand.New(rand.NewSource(9))
	vocabNames := det.Vocabulary().Actions()
	var anomalous []string
	anomalous = append(anomalous, sessions[0].Actions...)
	for i := 0; i < 40; i++ {
		anomalous = append(anomalous, vocabNames[rng.Intn(len(vocabNames))])
	}
	for i, a := range anomalous {
		ev := actionlog.Event{Time: base.Add(time.Duration(100+i) * time.Second), User: "mallory", SessionID: "bad-1", Action: a}
		if err := c.SendEvent(&ev); err != nil {
			t.Fatal(err)
		}
	}

	// The sync reply follows every alarm of both sessions, and both
	// sessions are live once their events are scored.
	alarms, st := mustSync(t, c)
	foundBad := false
	for _, a := range alarms {
		if a.SessionID == "normal-1" {
			t.Fatalf("false alarm on normal session: %+v", a)
		}
		foundBad = foundBad || a.SessionID == "bad-1"
	}
	if !foundBad {
		t.Fatal("no alarm received for the anomalous session")
	}
	if st.SessionsLive != 2 {
		t.Fatalf("server tracks %d sessions, want 2", st.SessionsLive)
	}
}

func TestServerIgnoresMalformedEvents(t *testing.T) {
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
	if _, err := conn.Write([]byte("{not json}\n{\"action\":\"\"}\n")); err != nil {
		t.Fatal(err)
	}
	// A valid event after garbage must still be processed.
	ev, _ := json.Marshal(&actionlog.Event{Time: time.Now(), User: "u", SessionID: "s", Action: "a0"})
	if _, err := conn.Write(append(ev, "\n{\"cmd\":\"sync\"}\n"...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var sr wire.StatusReply
	if err := json.NewDecoder(conn).Decode(&sr); err != nil || sr.Status.SessionsLive == 0 {
		t.Fatalf("valid event after garbage was not processed: %+v, %v", sr.Status, err)
	}
}

func TestServerExpiresIdleSessions(t *testing.T) {
	det, _ := tinyDetector(t)
	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen: "127.0.0.1:0",
		Engine: core.EngineConfig{IdleExpiry: 20 * time.Millisecond, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	c := dial(t, srv)
	if err := c.SendEvent(&actionlog.Event{Time: time.Now(), User: "u", SessionID: "idle-1", Action: "a0"}); err != nil {
		t.Fatal(err)
	}
	if _, st := mustSync(t, c); st.SessionsLive != 1 {
		t.Fatal("session never tracked")
	}
	// Eviction waits on the idle timer, so it is polled.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.SessionsLive == 0 && st.Evictions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session not evicted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerNGramBackendEndToEnd covers the full classical-backend
// serving flow on the embedded corpus: train an ngram detector (selected
// purely by config), save it through the tagged envelope, load it back,
// serve it, and stream an anomalous corpus session until alarms come
// back — no LSTM code anywhere in the path.
func TestServerNGramBackendEndToEnd(t *testing.T) {
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ScaledConfig(vocab.Size(), 13, 8, 2, 11)
	cfg.Backend = baseline.BackendNGram
	det, err := core.TrainDetector(cfg, vocab, c.ByCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "model")
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadDetector(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Backend() != baseline.BackendNGram {
		t.Fatalf("loaded backend %q", loaded.Backend())
	}

	srv, err := NewServer(newRegistry(t, loaded), ServerConfig{
		Listen:   "127.0.0.1:0",
		ModelDir: dir,
		Engine:   core.EngineConfig{IdleExpiry: time.Minute, Shards: 3, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	cl := dial(t, srv)
	base := time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)
	anomalies := c.Anomalies()
	if len(anomalies) == 0 {
		t.Fatal("corpus has no anomalous sessions")
	}
	for _, s := range anomalies {
		for i, a := range s.Actions {
			ev := actionlog.Event{Time: base.Add(time.Duration(i) * time.Second), User: s.User, SessionID: s.ID, Action: a}
			if err := cl.SendEvent(&ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	alarms, _ := mustSync(t, cl)
	if len(alarms) == 0 {
		t.Fatal("no alarm line from the ngram-backend server")
	}
	if a := alarms[0]; a.ModelVersion != 1 {
		t.Fatalf("alarm model version = %d, want 1", a.ModelVersion)
	}
	if st := srv.Stats(); st.Backend != baseline.BackendNGram {
		t.Fatalf("server reports backend %q", st.Backend)
	}
}

// TestServerReloadCommand covers the zero-downtime reload wire command:
// the daemon re-reads its model directory, bumps the registry version,
// and reports the new generation in status.
func TestServerReloadCommand(t *testing.T) {
	det, _ := tinyDetector(t)
	dir := filepath.Join(t.TempDir(), "model")
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen:   "127.0.0.1:0",
		ModelDir: dir,
		Engine:   core.EngineConfig{IdleExpiry: time.Minute, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	c := dial(t, srv)
	var rr wire.ReloadReply
	reply(t, c, "reload", &rr)
	if rr.Reload.Version != 2 || rr.Reload.Backend != det.Backend() || rr.Reload.Clusters != det.ClusterCount() {
		t.Fatalf("reload reply %+v does not describe the model at version 2", rr.Reload)
	}
	var st wire.StatusReply
	reply(t, c, "status", &st)
	if st.Status.ModelVersion != 2 || st.Status.Reloads != 1 {
		t.Fatalf("status after reload: version %d reloads %d, want 2/1", st.Status.ModelVersion, st.Status.Reloads)
	}
}

// TestServerReloadRefusesTamperedDirectory: a reload of a model
// directory with one flipped byte replies with the checksum error, and
// the engine keeps serving generation 1.
func TestServerReloadRefusesTamperedDirectory(t *testing.T) {
	det, _ := tinyDetector(t)
	dir := filepath.Join(t.TempDir(), "model")
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cluster-00-model.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen:   "127.0.0.1:0",
		ModelDir: dir,
		Engine:   core.EngineConfig{IdleExpiry: time.Minute, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	c := dial(t, srv)
	var er wire.ErrorReply
	reply(t, c, "reload", &er)
	if !strings.Contains(er.Error, "SHA-256 mismatch") {
		t.Fatalf("reload of a tampered directory replied %q, want a checksum error", er.Error)
	}
	var st wire.StatusReply
	reply(t, c, "status", &st)
	if st.Status.ModelVersion != 1 || st.Status.Reloads != 0 {
		t.Fatalf("status after a refused reload: version %d reloads %d, want 1/0", st.Status.ModelVersion, st.Status.Reloads)
	}
}

// TestServerCommandErrors: unknown control commands and impossible
// reloads must produce JSON error lines, not silence.
func TestServerCommandErrors(t *testing.T) {
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
	var er wire.ErrorReply
	reply(t, c, "frobnicate", &er)
	if er.Error != `unknown command "frobnicate"` {
		t.Fatalf("unknown-command reply %q", er.Error)
	}
	reply(t, c, "reload", &er)
	if !strings.Contains(er.Error, "model directory") {
		t.Fatalf("disabled-reload reply %q, want the missing model directory", er.Error)
	}
}

func TestServerStatusCommand(t *testing.T) {
	det, _ := tinyDetector(t)
	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen: "127.0.0.1:0",
		Engine: core.EngineConfig{IdleExpiry: time.Minute, Shards: 2, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	c := dial(t, srv)
	if err := c.SendEvent(&actionlog.Event{Time: time.Now(), User: "u", SessionID: "s1", Action: "a0"}); err != nil {
		t.Fatal(err)
	}
	// sync reads the event's alarms, if any, so the status reply is the
	// next line.
	mustSync(t, c)
	var st wire.StatusReply
	reply(t, c, "status", &st)
	if st.Status.Shards != 2 {
		t.Fatalf("status shards = %d, want 2", st.Status.Shards)
	}
	if st.Status.EventsSubmitted != 1 {
		t.Fatalf("status events_submitted = %d, want 1", st.Status.EventsSubmitted)
	}
	if st.Uptime == "" {
		t.Fatal("status reply has no uptime")
	}
}
