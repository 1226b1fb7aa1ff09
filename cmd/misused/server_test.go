package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
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

// syncReply sends {"cmd":"sync"} on conn and reads up to its status
// reply, returning the alarm lines read before it and the reply's
// counters: the reply follows every alarm of every event sent earlier on
// conn, and the counters cover every such event.
func syncReply(t *testing.T, conn net.Conn, sc *bufio.Scanner) ([]Alarm, core.EngineStats) {
	t.Helper()
	if _, err := conn.Write([]byte("{\"cmd\":\"sync\"}\n")); err != nil {
		t.Fatal(err)
	}
	return readToStatus(t, conn, sc)
}

// readToStatus reads alarm lines up to the next status reply.
func readToStatus(t *testing.T, conn net.Conn, sc *bufio.Scanner) ([]Alarm, core.EngineStats) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var alarms []Alarm
	for sc.Scan() {
		var line struct {
			Status *core.EngineStats `json:"status"`
			Alarm
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || (line.Status == nil && line.SessionID == "") {
			t.Fatalf("line %q is neither an alarm nor a status reply (%v)", sc.Text(), err)
		}
		if line.Status != nil {
			return alarms, *line.Status
		}
		alarms = append(alarms, line.Alarm)
	}
	t.Fatalf("no status reply: %v", sc.Err())
	return nil, core.EngineStats{}
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)

	// A normal session first.
	base := time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)
	for i, a := range sessions[0].Actions {
		ev := actionlog.Event{Time: base.Add(time.Duration(i) * time.Second), User: "alice", SessionID: "normal-1", Action: a}
		if err := enc.Encode(&ev); err != nil {
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
		if err := enc.Encode(&ev); err != nil {
			t.Fatal(err)
		}
	}

	// The sync reply follows every alarm of both sessions, and both
	// sessions are live once their events are scored.
	alarms, st := syncReply(t, conn, bufio.NewScanner(conn))
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
	ev := actionlog.Event{Time: time.Now(), User: "u", SessionID: "s", Action: "a0"}
	data, _ := json.Marshal(&ev)
	if _, err := conn.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, st := syncReply(t, conn, bufio.NewScanner(conn)); st.SessionsLive == 0 {
		t.Fatal("valid event after garbage was not processed")
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ev := actionlog.Event{Time: time.Now(), User: "u", SessionID: "idle-1", Action: "a0"}
	data, _ := json.Marshal(&ev)
	if _, err := conn.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, st := syncReply(t, conn, bufio.NewScanner(conn)); st.SessionsLive != 1 {
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	base := time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)
	anomalies := c.Anomalies()
	if len(anomalies) == 0 {
		t.Fatal("corpus has no anomalous sessions")
	}
	for _, s := range anomalies {
		for i, a := range s.Actions {
			ev := actionlog.Event{Time: base.Add(time.Duration(i) * time.Second), User: s.User, SessionID: s.ID, Action: a}
			if err := enc.Encode(&ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no alarm line from the ngram-backend server: %v", sc.Err())
	}
	var a Alarm
	if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
		t.Fatalf("bad alarm line %q: %v", sc.Text(), err)
	}
	if a.ModelVersion != 1 {
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("{\"cmd\":\"reload\"}\n{\"cmd\":\"status\"}\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no reload reply: %v", sc.Err())
	}
	var rr ReloadReply
	if err := json.Unmarshal(sc.Bytes(), &rr); err != nil || rr.Reload.Version != 2 {
		t.Fatalf("reload reply %q (err %v), want version 2", sc.Text(), err)
	}
	if rr.Reload.Backend != det.Backend() || rr.Reload.Clusters != det.ClusterCount() {
		t.Fatalf("reload reply %+v does not describe the model", rr.Reload)
	}
	if !sc.Scan() {
		t.Fatalf("no status reply: %v", sc.Err())
	}
	var st StatusReply
	if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
		t.Fatalf("status reply %q: %v", sc.Text(), err)
	}
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("{\"cmd\":\"reload\"}\n{\"cmd\":\"status\"}\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no reload reply: %v", sc.Err())
	}
	var er ErrorReply
	if err := json.Unmarshal(sc.Bytes(), &er); err != nil || !strings.Contains(er.Error, "SHA-256 mismatch") {
		t.Fatalf("reload of a tampered directory replied %q (err %v), want a checksum error", sc.Text(), err)
	}
	if !sc.Scan() {
		t.Fatalf("no status reply: %v", sc.Err())
	}
	var st StatusReply
	if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
		t.Fatalf("status reply %q: %v", sc.Text(), err)
	}
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("{\"cmd\":\"frobnicate\"}\n{\"cmd\":\"reload\"}\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no error reply for unknown command: %v", sc.Err())
	}
	var er ErrorReply
	if err := json.Unmarshal(sc.Bytes(), &er); err != nil || er.Error != `unknown command "frobnicate"` {
		t.Fatalf("unknown-command reply %q (err %v)", sc.Text(), err)
	}
	if !sc.Scan() {
		t.Fatalf("no error reply for disabled reload: %v", sc.Err())
	}
	er = ErrorReply{}
	if err := json.Unmarshal(sc.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("disabled-reload reply %q (err %v), want an error line", sc.Text(), err)
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

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ev := actionlog.Event{Time: time.Now(), User: "u", SessionID: "s1", Action: "a0"}
	data, _ := json.Marshal(&ev)
	if _, err := conn.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("{\"cmd\":\"status\"}\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		var reply StatusReply
		if err := json.Unmarshal(sc.Bytes(), &reply); err != nil || reply.Status.Shards == 0 {
			continue // an alarm line, not the status reply
		}
		if reply.Status.Shards != 2 {
			t.Fatalf("status shards = %d, want 2", reply.Status.Shards)
		}
		if reply.Status.EventsSubmitted < 1 {
			t.Fatalf("status events_submitted = %d, want >= 1", reply.Status.EventsSubmitted)
		}
		if reply.Uptime == "" {
			t.Fatal("status reply has no uptime")
		}
		return
	}
	t.Fatalf("no status reply received: %v", sc.Err())
}
