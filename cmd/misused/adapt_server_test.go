package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/pipeline"
)

// ngramDetector trains the tiny two-behavior detector on the cheap
// counting backend, so adapt-cycle tests retrain in milliseconds.
func ngramDetector(t *testing.T) (*core.Detector, []*actionlog.Session) {
	t.Helper()
	det, sessions := func() (*core.Detector, []*actionlog.Session) {
		_, sessions := tinyDetector2Corpus(t)
		vocab, err := actionlog.VocabularyFromSessions(sessions)
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := core.GroundTruthClustering(sessions, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.ScaledConfig(vocab.Size(), 2, 8, 2, 1)
		cfg.Backend = baseline.BackendNGram
		cfg.RouteVoteActions = 5
		det, err := core.TrainDetector(cfg, vocab, clusters, nil)
		if err != nil {
			t.Fatal(err)
		}
		return det, sessions
	}()
	return det, sessions
}

// tinyDetector2Corpus reuses tinyDetector's session corpus without
// paying for its LSTM training.
func tinyDetector2Corpus(t *testing.T) ([]string, []*actionlog.Session) {
	t.Helper()
	names := []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}
	var sessions []*actionlog.Session
	for c := 0; c < 2; c++ {
		for i := 0; i < 25; i++ {
			n := 6 + (i*7+c)%6
			actions := make([]string, n)
			for j := range actions {
				actions[j] = names[c*4+j%4]
			}
			sessions = append(sessions, &actionlog.Session{
				ID: fmt.Sprintf("%s-train-%02d", names[c*4], i), User: "u", Actions: actions, Cluster: c,
			})
		}
	}
	return names, sessions
}

func TestServerDriftAndAdaptCommands(t *testing.T) {
	det, sessions := ngramDetector(t)
	reg := newRegistry(t, det)
	quiet := core.MonitorConfig{LikelihoodFloor: 0, EWMAAlpha: 0.3, WarmupActions: 2}
	adapter, err := pipeline.New(reg, pipeline.Config{
		Monitor:        quiet,
		MinSessions:    30,
		MinPerCluster:  2,
		GuardrailDelta: 0.5,
		Seed:           5,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(reg, ServerConfig{
		Listen: "127.0.0.1:0",
		Engine: core.EngineConfig{
			IdleExpiry:     time.Minute,
			Shards:         2,
			Monitor:        quiet,
			OnSessionEnd:   adapter.OnSessionEnd,
			RecordSessions: true,
			Logf:           t.Logf,
		},
		Adapter: adapter,
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
	rd := bufio.NewReader(conn)
	roundTrip := func(cmd string) []byte {
		t.Helper()
		if err := enc.Encode(map[string]string{"cmd": cmd}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return line
	}

	// Drift state is served before any traffic.
	var dr DriftReply
	if err := json.Unmarshal(roundTrip("drift"), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Drift.MinSessions != 30 || dr.Drift.Buffered != 0 || dr.Drift.ServingVersion != 1 {
		t.Fatalf("initial drift status = %+v", dr.Drift)
	}

	// A manual cycle without enough buffered sessions is an error line.
	var er ErrorReply
	if err := json.Unmarshal(roundTrip("adapt"), &er); err != nil || er.Error == "" {
		t.Fatalf("adapt on empty buffer: %q, %v", er.Error, err)
	}

	// Stream fresh traffic, end the sessions, and adapt for real.
	sent := 0
	for i, s := range sessions {
		c := s.Clone()
		c.ID = fmt.Sprintf("live-%03d", i)
		for _, ev := range actionlog.Flatten([]*actionlog.Session{c}) {
			if err := enc.Encode(&ev); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	// The connection's reader handles lines in order, so the status
	// reply means every event line before it has been submitted; Flush
	// then scores them all and ends their sessions. (Polling for zero
	// events in flight instead can fire between two socket reads.)
	var pre StatusReply
	if err := json.Unmarshal(roundTrip("status"), &pre); err != nil {
		t.Fatal(err)
	}
	if pre.Status.EventsSubmitted != uint64(sent) {
		t.Fatalf("status after %d event lines reports %d submitted", sent, pre.Status.EventsSubmitted)
	}
	srv.engine.Flush()

	var ar AdaptReply
	if err := json.Unmarshal(roundTrip("adapt"), &ar); err != nil || ar.Adapt == nil {
		t.Fatalf("adapt reply: %v", err)
	}
	if !ar.Adapt.Swapped || ar.Adapt.NewVersion != 2 {
		t.Fatalf("adapt cycle = %+v", ar.Adapt)
	}
	var sr StatusReply
	if err := json.Unmarshal(roundTrip("status"), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status.ModelVersion != 2 {
		t.Fatalf("status after adapt: version %d, want 2", sr.Status.ModelVersion)
	}
	if err := json.Unmarshal(roundTrip("drift"), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Drift.Swaps != 1 || dr.Drift.LastCycle == nil {
		t.Fatalf("drift status after adapt = %+v", dr.Drift)
	}
}

func TestServerAdaptDisabled(t *testing.T) {
	det, _ := ngramDetector(t)
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
	enc := json.NewEncoder(conn)
	rd := bufio.NewReader(conn)
	for _, cmd := range []string{"drift", "adapt"} {
		if err := enc.Encode(map[string]string{"cmd": cmd}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorReply
		if err := json.Unmarshal(line, &er); err != nil || er.Error == "" {
			t.Fatalf("%s without adapter must error, got %s", cmd, line)
		}
	}
}
