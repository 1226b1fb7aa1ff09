package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/pipeline"
	"misusedetect/internal/wire"
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

	c := dial(t, srv)

	// Drift state is served before any traffic.
	var dr wire.DriftReply
	reply(t, c, "drift", &dr)
	if dr.Drift.MinSessions != 30 || dr.Drift.Buffered != 0 || dr.Drift.ServingVersion != 1 {
		t.Fatalf("initial drift status = %+v", dr.Drift)
	}

	// A manual cycle without enough buffered sessions is an error line.
	var er wire.ErrorReply
	reply(t, c, "adapt", &er)

	// Stream fresh traffic, end the sessions, and adapt for real.
	sent := 0
	for i, s := range sessions {
		s = s.Clone()
		s.ID = fmt.Sprintf("live-%03d", i)
		for _, ev := range actionlog.Flatten([]*actionlog.Session{s}) {
			if err := c.SendEvent(&ev); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	// The sync reply means every event line before it has been submitted
	// and scored (the quiet floor raises no alarm line ahead of it);
	// Flush then ends their sessions.
	var pre wire.StatusReply
	reply(t, c, "sync", &pre)
	if pre.Status.EventsSubmitted != uint64(sent) {
		t.Fatalf("status after %d event lines reports %d submitted", sent, pre.Status.EventsSubmitted)
	}
	srv.engine.Flush()

	var ar wire.AdaptReply
	reply(t, c, "adapt", &ar)
	if ar.Adapt == nil || !ar.Adapt.Swapped || ar.Adapt.NewVersion != 2 {
		t.Fatalf("adapt cycle = %+v", ar.Adapt)
	}
	var sr wire.StatusReply
	reply(t, c, "status", &sr)
	if sr.Status.ModelVersion != 2 {
		t.Fatalf("status after adapt: version %d, want 2", sr.Status.ModelVersion)
	}
	reply(t, c, "drift", &dr)
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
	c := dial(t, srv)
	for _, cmd := range []string{"drift", "adapt"} {
		var er wire.ErrorReply
		reply(t, c, cmd, &er)
		if !strings.Contains(er.Error, "-adapt") {
			t.Fatalf("%s without adapter replied %q, want a pointer at -adapt", cmd, er.Error)
		}
	}
}
