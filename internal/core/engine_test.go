package core

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// corpusDetector trains one small 13-cluster detector on the embedded
// corpus's normal sessions, shared across engine tests (training under
// -race is the expensive part).
var (
	corpusDetOnce sync.Once
	corpusDet     *Detector
	corpusDetErr  error
)

func corpusDetector(t testing.TB) *Detector {
	t.Helper()
	corpusDetOnce.Do(func() {
		c, err := corpus.Load()
		if err != nil {
			corpusDetErr = err
			return
		}
		vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
		if err != nil {
			corpusDetErr = err
			return
		}
		cfg := ScaledConfig(vocab.Size(), 13, 8, 2, 11)
		cfg.LM.Trainer.LearningRate = 0.01
		cfg.LM.Network.DropoutRate = 0
		corpusDet, corpusDetErr = TrainDetector(cfg, vocab, c.ByCluster(), nil)
	})
	if corpusDetErr != nil {
		t.Fatalf("train corpus detector: %v", corpusDetErr)
	}
	return corpusDet
}

// trainCorpusNGram trains a 13-cluster ngram-backend detector on the
// embedded corpus; counting-based training is cheap enough to run
// per-test.
func trainCorpusNGram(t testing.TB, seed int64) *Detector {
	t.Helper()
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(vocab.Size(), 13, 8, 2, seed)
	cfg.Backend = baseline.BackendNGram
	det, err := TrainDetector(cfg, vocab, c.ByCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// engineDeterminismMatrix asserts the sharded engine's alarm stream over
// the embedded corpus is byte-identical to the serial monitor's for
// every (shard count, score-batch) pair — the determinism anchor, per
// backend. ScoreBatch 1 is the serial reference path (each staged
// stream advances alone), 3 forces ragged chunk tails, 64 is the fused
// production default; all three must agree with the unsharded serial
// monitor to the byte.
func engineDeterminismMatrix(t *testing.T, det *Detector) {
	t.Helper()
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	mcfg := DefaultMonitorConfig()

	serial, err := det.ReplaySerial(mcfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("serial replay raised no alarms; the determinism comparison would be vacuous")
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, shards := range []int{1, 3, 8} {
		for _, scoreBatch := range []int{1, 3, 64} {
			eng, err := NewEngine(det, EngineConfig{
				Shards:        shards,
				QueueDepth:    64,
				ScoreBatch:    scoreBatch,
				Monitor:       mcfg,
				Deterministic: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Replay(ctx, events)
			eng.Close()
			if err != nil {
				t.Fatalf("shards=%d scoreBatch=%d: %v", shards, scoreBatch, err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(want) {
				t.Fatalf("shards=%d scoreBatch=%d: alarm stream diverges from serial path\nserial: %d alarms\nengine: %d alarms",
					shards, scoreBatch, len(serial), len(got))
			}
		}
	}
}

// TestEngineDeterminismMatchesSerial is the concurrency tentpole's core
// guarantee for the default LSTM backend.
func TestEngineDeterminismMatchesSerial(t *testing.T) {
	engineDeterminismMatrix(t, corpusDetector(t))
}

// TestEngineDeterminismNGramBackend runs the same determinism anchor
// with the ngram backend: the engine must be backend-agnostic down to
// the byte-identical alarm stream.
func TestEngineDeterminismNGramBackend(t *testing.T) {
	engineDeterminismMatrix(t, trainCorpusNGram(t, 11))
}

// TestEngineAlarmsFlagAnomalies sanity-checks the labels: corpus anomalies
// dominate the alarm stream and normal traffic stays mostly quiet.
func TestEngineAlarmsFlagAnomalies(t *testing.T) {
	det := corpusDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(det, EngineConfig{Shards: 4, Monitor: DefaultMonitorConfig(), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	alarms, err := eng.Replay(context.Background(), c.Events())
	if err != nil {
		t.Fatal(err)
	}
	anomalous := make(map[string]bool)
	for _, s := range c.Anomalies() {
		anomalous[s.ID] = true
	}
	flagged := make(map[string]bool)
	for _, a := range alarms {
		flagged[a.SessionID] = true
	}
	hit := 0
	for id := range flagged {
		if anomalous[id] {
			hit++
		}
	}
	if hit*2 < len(anomalous) {
		t.Fatalf("only %d/%d anomalous corpus sessions raised alarms", hit, len(anomalous))
	}
}

// TestEngineStatsAndEviction checks the engine counters and the per-shard
// idle-eviction clock.
func TestEngineStatsAndEviction(t *testing.T) {
	det := corpusDetector(t)
	// IdleExpiry must comfortably exceed the submit+drain phase (which
	// is slow under -race), or sessions get evicted before the
	// live-session assertion.
	eng, err := NewEngine(det, EngineConfig{
		Shards:     2,
		IdleExpiry: 500 * time.Millisecond,
		Monitor:    DefaultMonitorConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	names := det.Vocabulary().Actions()
	sessions := []string{"s-a", "s-b", "s-c", "s-d", "s-e"}
	n := 0
	for _, id := range sessions {
		for i := 0; i < 4; i++ {
			ev := actionlog.Event{SessionID: id, User: "u", Action: names[i], Time: time.Now()}
			if err := eng.Submit(ctx, ev, nil); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.EventsSubmitted != uint64(n) || st.EventsProcessed != uint64(n) {
		t.Fatalf("submitted/processed = %d/%d, want %d/%d", st.EventsSubmitted, st.EventsProcessed, n, n)
	}
	if st.EventsInFlight != 0 {
		t.Fatalf("in-flight = %d after drain", st.EventsInFlight)
	}
	if st.SessionsLive != uint64(len(sessions)) {
		t.Fatalf("sessions live = %d, want %d", st.SessionsLive, len(sessions))
	}
	if st.Shards != 2 {
		t.Fatalf("shards = %d, want 2", st.Shards)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = eng.Stats()
		if st.SessionsLive == 0 && st.Evictions == uint64(len(sessions)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle sessions not evicted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineStreamingSink checks alarm delivery to a subscriber channel
// and that Detach stops delivery so the channel can be closed.
func TestEngineStreamingSink(t *testing.T) {
	det := corpusDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(det, EngineConfig{Shards: 3, Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	sink := make(chan Alarm, 1024)
	var got []Alarm
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for a := range sink {
			got = append(got, a)
		}
	}()
	ctx := context.Background()
	for _, ev := range c.Events() {
		if err := eng.Submit(ctx, ev, sink); err != nil {
			t.Fatal(err)
		}
	}
	eng.Detach(sink)
	close(sink)
	<-recvDone
	if len(got) == 0 {
		t.Fatal("no alarms delivered to the streaming sink")
	}
	if st := eng.Stats(); st.AlarmsRaised != uint64(len(got)) {
		t.Fatalf("AlarmsRaised = %d, sink received %d", st.AlarmsRaised, len(got))
	}
}

// TestEngineConcurrentSubmitters drives the engine from many goroutines
// with disjoint session sets under -race.
func TestEngineConcurrentSubmitters(t *testing.T) {
	det := corpusDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(det, EngineConfig{Shards: 4, QueueDepth: 16, Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	sessions := c.ActionSessions()
	const feeders = 8
	var wg sync.WaitGroup
	var submitted atomic.Uint64
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			ctx := context.Background()
			for i := f; i < len(sessions); i += feeders {
				for _, ev := range actionlog.Flatten(sessions[i : i+1]) {
					if err := eng.Submit(ctx, ev, nil); err != nil {
						t.Error(err)
						return
					}
					submitted.Add(1)
				}
			}
		}(f)
	}
	wg.Wait()
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.EventsProcessed != submitted.Load() {
		t.Fatalf("processed %d of %d submitted events", st.EventsProcessed, submitted.Load())
	}
	if st.ScoreErrors != 0 {
		t.Fatalf("%d score errors on corpus traffic", st.ScoreErrors)
	}
}

// TestEngineHotReloadPinsSessions is the hot-reload guarantee under
// -race: model generations are swapped while sessions are in flight,
// and (a) every session's alarms carry exactly one model version, (b)
// sessions that started before a reload keep scoring on their pinned
// generation even for events submitted after it, (c) sessions started
// after a reload use the new generation, and (d) the engine counters
// report the active version.
func TestEngineHotReloadPinsSessions(t *testing.T) {
	detV1 := trainCorpusNGram(t, 11)
	detNext := trainCorpusNGram(t, 99)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(detV1, EngineConfig{
		Shards:        4,
		QueueDepth:    64,
		Monitor:       DefaultMonitorConfig(),
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Per-feeder disjoint session sets, each session's events split into
	// halves; the first half always holds the session-creating event.
	sessions := c.ActionSessions()
	const feeders = 4
	var firstHalf, secondHalf [feeders][]actionlog.Event
	for i := range sessions {
		evs := actionlog.Flatten(sessions[i : i+1])
		cut := (len(evs) + 1) / 2
		f := i % feeders
		firstHalf[f] = append(firstHalf[f], evs[:cut]...)
		secondHalf[f] = append(secondHalf[f], evs[cut:]...)
	}
	submitWave := func(waves *[feeders][]actionlog.Event) {
		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(evs []actionlog.Event) {
				defer wg.Done()
				for _, ev := range evs {
					if err := eng.Submit(ctx, ev, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}(waves[f])
		}
		wg.Wait()
	}

	// Wave 1a: every corpus session starts on generation 1. Drain so
	// each session-creating event is processed (sessions pin at their
	// first *scored* event) before the generation changes.
	submitWave(&firstHalf)
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reload(detNext, "v2"); err != nil {
		t.Fatal(err)
	}
	// Wave 1b: the sessions' remaining events race with another reload;
	// both must keep scoring on the pinned generation 1.
	var reloadWG sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		if _, err := eng.Reload(detV1, "v3"); err != nil {
			t.Error(err)
		}
	}()
	submitWave(&secondHalf)
	reloadWG.Wait()

	// Wave 2: the same traffic under fresh session IDs starts strictly
	// after both reloads, so it must score on generation 3.
	var wave2 [feeders][]actionlog.Event
	for f := 0; f < feeders; f++ {
		for _, half := range []*[feeders][]actionlog.Event{&firstHalf, &secondHalf} {
			for _, ev := range half[f] {
				ev.SessionID = "r2-" + ev.SessionID
				wave2[f] = append(wave2[f], ev)
			}
		}
	}
	submitWave(&wave2)

	alarms, err := eng.DrainAlarms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byVersion := map[uint64]int{}
	perSession := map[string]uint64{}
	for _, a := range alarms {
		byVersion[a.ModelVersion]++
		if v, seen := perSession[a.SessionID]; seen && v != a.ModelVersion {
			t.Fatalf("session %s mixes model versions %d and %d", a.SessionID, v, a.ModelVersion)
		}
		perSession[a.SessionID] = a.ModelVersion
		wantVersion := uint64(1)
		if len(a.SessionID) >= 3 && a.SessionID[:3] == "r2-" {
			wantVersion = 3
		}
		if a.ModelVersion != wantVersion {
			t.Fatalf("session %s scored on version %d, want %d", a.SessionID, a.ModelVersion, wantVersion)
		}
	}
	if byVersion[1] == 0 || byVersion[3] == 0 {
		t.Fatalf("want alarms from generations 1 and 3, got %v", byVersion)
	}
	st := eng.Stats()
	if st.ModelVersion != 3 {
		t.Fatalf("stats report model version %d, want 3", st.ModelVersion)
	}
	if st.Reloads != 2 {
		t.Fatalf("stats report %d reloads, want 2", st.Reloads)
	}
	if st.Backend != baseline.BackendNGram {
		t.Fatalf("stats report backend %q", st.Backend)
	}
}

// TestEngineValidationAndClose covers the error paths.
func TestEngineValidationAndClose(t *testing.T) {
	det := corpusDetector(t)
	if _, err := NewEngine(det, EngineConfig{Shards: -1}); err == nil {
		t.Fatal("negative shard count must fail")
	}
	if _, err := NewEngine(det, EngineConfig{QueueDepth: -1}); err == nil {
		t.Fatal("negative queue depth must fail")
	}
	if _, err := NewEngine(det, EngineConfig{Monitor: MonitorConfig{EWMAAlpha: 2}}); err == nil {
		t.Fatal("invalid monitor config must fail")
	}

	eng, err := NewEngine(det, EngineConfig{Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.Submit(ctx, actionlog.Event{SessionID: "s"}, nil); err == nil {
		t.Fatal("event without action must fail")
	}
	if err := eng.Submit(ctx, actionlog.Event{Action: "a"}, nil); err == nil {
		t.Fatal("event without session_id must fail")
	}
	if _, err := eng.DrainAlarms(ctx); err == nil {
		t.Fatal("DrainAlarms outside deterministic mode must fail")
	}
	// Unknown actions are counted, not fatal.
	if err := eng.Submit(ctx, actionlog.Event{SessionID: "s", Action: "no-such-action"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.ScoreErrors != 1 {
		t.Fatalf("ScoreErrors = %d, want 1", st.ScoreErrors)
	}
	eng.Close()
	eng.Close() // idempotent
	if err := eng.Submit(ctx, actionlog.Event{SessionID: "s", Action: "a"}, nil); err == nil {
		t.Fatal("submit after close must fail")
	}
	eng.Detach(nil) // no-op after close, must not hang
}
