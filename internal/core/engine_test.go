package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
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

// submitEvents interns evs through the engine's Interner and submits
// them with SubmitTokens, the way the wire edge feeds the engine.
func submitEvents(ctx context.Context, eng *Engine, evs []actionlog.Event, sink chan<- Alarm) error {
	toks := make([]BatchEvent, len(evs))
	for i := range evs {
		toks[i] = BatchEvent{Ev: evs[i], Tok: eng.Interner().Intern(evs[i].Action)}
	}
	return eng.SubmitTokens(ctx, toks, sink)
}

// collectAlarms drains a fresh sink on its own goroutine, the way a
// connection's alarm writer does. The returned func drains the engine,
// closes the sink and returns what it received, stable-sorted by Seq.
func collectAlarms(eng *Engine) (chan<- Alarm, func() []Alarm) {
	sink := make(chan Alarm, 64) // any size works; a buffer only saves shard waits
	done := make(chan []Alarm, 1)
	go func() {
		var got []Alarm
		for a := range sink {
			got = append(got, a)
		}
		done <- got
	}()
	return sink, func() []Alarm {
		eng.Drain(context.Background())
		close(sink)
		got := <-done
		sort.SliceStable(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
		return got
	}
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
				Shards:     shards,
				QueueDepth: 64,
				ScoreBatch: scoreBatch,
				Monitor:    mcfg,
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
	eng, err := NewEngine(det, EngineConfig{Shards: 4, Monitor: DefaultMonitorConfig()})
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

// TestEngineReplayReleasesSink: after Replay the same engine streams
// later sessions to their own sinks — and a later run of the anomalous
// sessions' actions raises the alarms Replay returned for them.
func TestEngineReplayReleasesSink(t *testing.T) {
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	replayed, err := eng.Replay(ctx, c.Events())
	if err != nil {
		t.Fatal(err)
	}
	anomalous := map[string]bool{}
	for _, s := range c.Anomalies() {
		anomalous[s.ID] = true
	}
	var later []actionlog.Event
	for _, ev := range c.Events() {
		if anomalous[ev.SessionID] {
			ev.SessionID = "late-" + ev.SessionID
			later = append(later, ev)
		}
	}
	var want []Alarm
	for _, a := range replayed {
		if anomalous[a.SessionID] {
			want = append(want, a)
		}
	}
	if len(want) == 0 {
		t.Fatal("Replay raised no alarms on anomalous sessions; the comparison would be vacuous")
	}
	sink, collect := collectAlarms(eng)
	if err := submitEvents(ctx, eng, later, sink); err != nil {
		t.Fatal(err)
	}
	got := collect()
	if len(got) != len(want) {
		t.Fatalf("fresh sink received %d alarms, Replay returned %d for the same sessions", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.SessionID != "late-"+w.SessionID || g.Kind != w.Kind || g.Position != w.Position ||
			g.Cluster != w.Cluster || g.Likelihood != w.Likelihood {
			t.Fatalf("alarm %d: streamed %+v, replayed %+v", i, g, w)
		}
	}
	if st := eng.Stats(); st.AlarmsRaised != uint64(len(replayed)+len(got)) {
		t.Fatalf("AlarmsRaised = %d, want %d replayed + %d streamed", st.AlarmsRaised, len(replayed), len(got))
	}
}

// TestEngineReplayCanceled: a canceled context makes Replay return the
// context's error, and the engine still closes.
func TestEngineReplayCanceled(t *testing.T) {
	det := corpusDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(det, EngineConfig{Shards: 2, QueueDepth: 1, Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Replay(ctx, c.Events()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay under a canceled context = %v, want context.Canceled", err)
	}
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after a canceled Replay")
	}
}

// TestEngineReplayRefusesAlarmSendTimeout: an engine that may drop
// alarms on a slow sink cannot give Replay its exact alarm stream.
func TestEngineReplayRefusesAlarmSendTimeout(t *testing.T) {
	eng, err := NewEngine(corpusDetector(t), EngineConfig{AlarmSendTimeout: time.Second, Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	evs := []actionlog.Event{{SessionID: "s", Action: logsim.ActionNames()[0]}}
	if _, err := eng.Replay(context.Background(), evs); err == nil || !strings.Contains(err.Error(), "AlarmSendTimeout") {
		t.Fatalf("Replay with AlarmSendTimeout set = %v, want a refusal", err)
	}
	if st := eng.Stats(); st.EventsSubmitted != 0 {
		t.Fatalf("refused Replay submitted %d events", st.EventsSubmitted)
	}
}

// TestEngineStatsAndEviction checks the engine counters and the per-shard
// idle-eviction clock.
func TestEngineStatsAndEviction(t *testing.T) {
	det := corpusDetector(t)
	eng, err := NewEngine(det, EngineConfig{
		Shards:     2,
		IdleExpiry: time.Hour,
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
			if err := submitEvents(ctx, eng, []actionlog.Event{ev}, nil); err != nil {
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
	// A sweep as of two hours from now finds every session idle past
	// the hour.
	eng.sweepNow(time.Now().Add(2 * time.Hour))
	if st = eng.Stats(); st.SessionsLive != 0 || st.Evictions != uint64(len(sessions)) {
		t.Fatalf("idle sessions not evicted: %+v", st)
	}
}

// TestEngineUnknownActionLoggedOnce: 1,000 events of one action outside
// the vocabulary, spread over sessions on three shards, write one log
// line and count 1,000 unknown events.
func TestEngineUnknownActionLoggedOnce(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	eng, err := NewEngine(trainCorpusNGram(t, 11), EngineConfig{
		Shards:  3,
		Monitor: DefaultMonitorConfig(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	evs := make([]actionlog.Event, 1000)
	for i := range evs {
		evs[i] = actionlog.Event{SessionID: fmt.Sprintf("s-%02d", i%40), User: "u", Action: "zz-unknown"}
	}
	for off := 0; off < len(evs); off += 50 {
		if err := submitEvents(ctx, eng, evs[off:off+50], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.UnknownEvents != 1000 || st.ScoreErrors != 1000 {
		t.Fatalf("unknown events %d, score errors %d; want 1000 of each", st.UnknownEvents, st.ScoreErrors)
	}
	mu.Lock()
	defer mu.Unlock()
	unknown := 0
	for _, l := range lines {
		if strings.Contains(l, "unknown action") {
			unknown++
		}
	}
	if unknown != 1 {
		t.Fatalf("%d unknown-action log lines, want 1: %q", unknown, lines)
	}
}

// TestEngineStreamingSink checks alarm delivery to a subscriber channel
// and that Drain ends delivery so the channel can be closed.
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
		if err := submitEvents(ctx, eng, []actionlog.Event{ev}, sink); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain(context.Background())
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
					if err := submitEvents(ctx, eng, []actionlog.Event{ev}, nil); err != nil {
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
		Shards:     4,
		QueueDepth: 64,
		Monitor:    DefaultMonitorConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sink, collect := collectAlarms(eng)

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
					if err := submitEvents(ctx, eng, []actionlog.Event{ev}, sink); err != nil {
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
	if _, err := eng.Registry().Swap(detNext, nil, "v2"); err != nil {
		t.Fatal(err)
	}
	// Wave 1b: the sessions' remaining events race with another reload;
	// both must keep scoring on the pinned generation 1.
	var reloadWG sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		if _, err := eng.Registry().Swap(detV1, nil, "v3"); err != nil {
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

	alarms := collect()
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
	if err := submitEvents(ctx, eng, []actionlog.Event{{SessionID: "s"}}, nil); err == nil {
		t.Fatal("event without action must fail")
	}
	if err := submitEvents(ctx, eng, []actionlog.Event{{Action: "a"}}, nil); err == nil {
		t.Fatal("event without session_id must fail")
	}
	// Unknown actions are counted, not fatal.
	if err := submitEvents(ctx, eng, []actionlog.Event{{SessionID: "s", Action: "no-such-action"}}, nil); err != nil {
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
	if err := submitEvents(ctx, eng, []actionlog.Event{{SessionID: "s", Action: "a"}}, nil); err == nil {
		t.Fatal("submit after close must fail")
	}
	eng.Drain(context.Background()) // after close: must not hang
}
