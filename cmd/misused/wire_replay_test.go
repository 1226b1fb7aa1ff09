package main

import (
	"testing"
	"time"

	"misusedetect/internal/baseline"
	"misusedetect/internal/core"
	"misusedetect/internal/harness"
	"misusedetect/internal/wire"
)

// corpusNGram trains an ngram detector on the harness corpus split.
func corpusNGram(t *testing.T) (*core.Detector, *harness.Traffic) {
	t.Helper()
	tr, err := harness.CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ScaledConfig(tr.Vocab.Size(), len(tr.Train), 8, 2, 11)
	cfg.Backend = baseline.BackendNGram
	det, err := core.TrainDetector(cfg, tr.Vocab, tr.Train, nil)
	if err != nil {
		t.Fatal(err)
	}
	return det, tr
}

// corpusServer serves the corpus ngram detector at the default
// thresholds — the deployed configuration the wire harness is meant to
// exercise.
func corpusServer(t *testing.T) (*Server, *harness.Traffic, func()) {
	t.Helper()
	det, tr := corpusNGram(t)
	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen: "127.0.0.1:0",
		Engine: core.EngineConfig{IdleExpiry: time.Minute, Shards: 3, Monitor: core.DefaultMonitorConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	return srv, tr, shutdown
}

// TestWireReplay closes the loop at the wire level: labeled corpus
// traffic streams over TCP to a live daemon and wire.Replay folds the
// alarm lines back into a detection report.
func TestWireReplay(t *testing.T) {
	srv, tr, shutdown := corpusServer(t)
	defer shutdown()

	rep, err := wire.Replay(srv.Addr(), tr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != baseline.BackendNGram || rep.Shards != 3 || rep.ModelVersion != 1 {
		t.Fatalf("wire report daemon identity %+v", rep)
	}
	if rep.Events == 0 || rep.AnomalySessions != len(tr.Anomalies) || rep.NormalSessions != len(tr.Holdout) {
		t.Fatalf("wire report shape %+v", rep)
	}
	if rep.DetectedAnomalies == 0 {
		t.Fatal("wire replay detected no anomalous sessions")
	}
	if rep.MeanTimeToDetection <= 0 {
		t.Fatalf("mean time-to-detection %v", rep.MeanTimeToDetection)
	}
	if rep.AlarmsReceived == 0 {
		t.Fatal("no alarm lines received")
	}
	// Every detected kind must be a known corpus kind.
	for kind, n := range rep.DetectedByKind {
		if n <= 0 {
			t.Fatalf("kind %q counted %d", kind, n)
		}
	}
}
