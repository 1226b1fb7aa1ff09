package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// trainCorpusHMM trains a 13-cluster HMM-backend detector on the
// embedded corpus.
func trainCorpusHMM(t testing.TB, seed int64) *Detector {
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
	cfg.Backend = baseline.BackendHMM
	det, err := TrainDetector(cfg, vocab, c.ByCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestEngineBatchSingleEquivalenceProperty is the batch-path correctness
// property: the same event stream submitted through SubmitTokens in
// random batch sizes produces a byte-identical Seq-ordered alarm stream
// to one-event submissions, across 1/3/8 shards and all three scorer
// backends. The stream includes
// injected out-of-vocabulary actions so unknown-token handling is pinned
// by the same property.
func TestEngineBatchSingleEquivalenceProperty(t *testing.T) {
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	// Splice unknown actions into the stream at a fixed cadence: both
	// paths must count and skip them identically.
	injected := map[string]bool{}
	for i := 90; i < len(events); i += 97 {
		ev := events[i]
		ev.Action = fmt.Sprintf("zz-unknown-%d", i%5)
		injected[ev.Action] = true
		events[i] = ev
	}
	if len(injected) == 0 {
		t.Fatal("corpus stream too short to inject unknown actions")
	}
	mcfg := DefaultMonitorConfig()
	backends := []struct {
		name string
		det  *Detector
	}{
		{"lstm", corpusDetector(t)},
		{"ngram", trainCorpusNGram(t, 11)},
		{"hmm", trainCorpusHMM(t, 11)},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	for _, b := range backends {
		// Reference: one-event submissions through a single-shard engine.
		ref, err := NewEngine(b.det, EngineConfig{Shards: 1, QueueDepth: 64, Monitor: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		refSink, refCollect := collectAlarms(ref)
		for i := range events {
			if err := submitEvents(ctx, ref, events[i:i+1], refSink); err != nil {
				t.Fatalf("%s: submit: %v", b.name, err)
			}
		}
		refAlarms := refCollect()
		refStats := ref.Stats()
		ref.Close()
		// One way into a shard: every one-event submission is a batch of
		// one.
		if refStats.BatchesSubmitted != refStats.EventsSubmitted {
			t.Fatalf("%s: per-event path counted %d batches for %d events", b.name, refStats.BatchesSubmitted, refStats.EventsSubmitted)
		}
		if len(refAlarms) == 0 {
			t.Fatalf("%s: reference path raised no alarms; the property would be vacuous", b.name)
		}
		want, err := json.Marshal(refAlarms)
		if err != nil {
			t.Fatal(err)
		}

		for _, shards := range []int{1, 3, 8} {
			rng := rand.New(rand.NewSource(int64(shards) * 101))
			eng, err := NewEngine(b.det, EngineConfig{Shards: shards, QueueDepth: 64, Monitor: mcfg})
			if err != nil {
				t.Fatal(err)
			}
			sink, collect := collectAlarms(eng)
			for off := 0; off < len(events); {
				n := 1 + rng.Intn(9)
				if off+n > len(events) {
					n = len(events) - off
				}
				if err := submitEvents(ctx, eng, events[off:off+n], sink); err != nil {
					t.Fatalf("%s shards=%d: batch submit: %v", b.name, shards, err)
				}
				off += n
			}
			got := collect()
			st := eng.Stats()
			eng.Close()
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(want) {
				t.Fatalf("%s shards=%d: batched alarm stream diverges from per-event path (%d vs %d alarms)",
					b.name, shards, len(got), len(refAlarms))
			}
			if st.EventsSubmitted != uint64(len(events)) || st.EventsProcessed != uint64(len(events)) {
				t.Fatalf("%s shards=%d: submitted/processed = %d/%d, want %d", b.name, shards, st.EventsSubmitted, st.EventsProcessed, len(events))
			}
			if st.BatchesSubmitted == 0 {
				t.Fatalf("%s shards=%d: no batches counted", b.name, shards)
			}
			if st.LearnedActions != len(injected) {
				t.Fatalf("%s shards=%d: interner learned %d actions, want the %d injected unknowns", b.name, shards, st.LearnedActions, len(injected))
			}
		}
	}
}

// backpressureEngine builds a 1-shard, 1-deep engine whose monitor
// alarms on every scored action past the first, so an undrained sink
// wedges the shard and the queue fills immediately.
func backpressureEngine(t *testing.T) (*Engine, []actionlog.Event) {
	t.Helper()
	det := trainCorpusNGram(t, 11)
	eng, err := NewEngine(det, EngineConfig{
		Shards:     1,
		QueueDepth: 1,
		Monitor:    MonitorConfig{LikelihoodFloor: 1, EWMAAlpha: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := det.Vocabulary().Actions()
	evs := make([]actionlog.Event, 24)
	for i := range evs {
		evs[i] = actionlog.Event{
			Time:      time.Unix(int64(i), 0),
			SessionID: "s-bp",
			User:      "u",
			Action:    names[i%4],
		}
	}
	return eng, evs
}

// TestEngineBatchBackpressure pins the bounded-queue contract under
// batched SubmitTokens: a full shard queue blocks the producer (no unbounded
// buffering, no dropped events), and once the consumer drains, Flush and
// Close still drain cleanly mid-batch with every event scored exactly
// once.
func TestEngineBatchBackpressure(t *testing.T) {
	eng, evs := backpressureEngine(t)
	defer eng.Close()
	ctx := context.Background()
	sink := make(chan Alarm) // unbuffered and initially undrained

	const per = 4
	batches := len(evs) / per
	var submitted atomic.Int32
	prodDone := make(chan error, 1)
	go func() {
		for k := 0; k < batches; k++ {
			if err := submitEvents(ctx, eng, evs[k*per:(k+1)*per], sink); err != nil {
				prodDone <- err
				return
			}
			submitted.Add(1)
		}
		prodDone <- nil
	}()

	// The shard wedges on the first alarm send; with a 1-deep queue the
	// producer must stall far short of the full load, and stay stalled.
	time.Sleep(200 * time.Millisecond)
	stalled := submitted.Load()
	if stalled >= int32(batches) {
		t.Fatal("producer finished against a wedged sink: no backpressure")
	}
	time.Sleep(150 * time.Millisecond)
	if got := submitted.Load(); got != stalled {
		t.Fatalf("submission progressed %d -> %d with no consumer: events buffered without bound", stalled, got)
	}
	select {
	case err := <-prodDone:
		t.Fatalf("producer returned early: %v", err)
	default:
	}

	// Unblock: drain the sink. The producer must now finish.
	var delivered atomic.Int64
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for range sink {
			delivered.Add(1)
		}
	}()
	select {
	case err := <-prodDone:
		if err != nil {
			t.Fatalf("producer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the sink drained")
	}

	// Mid-batch Flush: everything submitted before it must be scored,
	// and the engine must end the session cleanly.
	eng.Flush()
	st := eng.Stats()
	if st.EventsSubmitted != uint64(len(evs)) || st.EventsProcessed != uint64(len(evs)) {
		t.Fatalf("submitted/processed = %d/%d, want %d/%d", st.EventsSubmitted, st.EventsProcessed, len(evs), len(evs))
	}
	if st.SessionsLive != 0 {
		t.Fatalf("sessions live after flush = %d", st.SessionsLive)
	}
	eng.Drain(context.Background())
	close(sink)
	<-drainDone
	if uint64(delivered.Load()) != st.AlarmsRaised || delivered.Load() == 0 {
		t.Fatalf("delivered %d alarms, stats say %d", delivered.Load(), st.AlarmsRaised)
	}
}

// TestEngineBatchSubmitCancel pins the partial-submission contract: a
// producer blocked on a full queue is released by context cancellation
// with an error reporting the unsubmitted remainder, and Close still
// drains what was accepted.
func TestEngineBatchSubmitCancel(t *testing.T) {
	eng, evs := backpressureEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	sink := make(chan Alarm) // never drained until shutdown

	prodDone := make(chan error, 1)
	go func() {
		for k := 0; k*4 < len(evs); k++ {
			end := (k + 1) * 4
			if end > len(evs) {
				end = len(evs)
			}
			if err := submitEvents(ctx, eng, evs[k*4:end], sink); err != nil {
				prodDone <- err
				return
			}
		}
		prodDone <- nil
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	var err error
	select {
	case err = <-prodDone:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled producer still blocked")
	}
	if err == nil || !strings.Contains(err.Error(), "not submitted") {
		t.Fatalf("cancel error = %v, want partial-submission report", err)
	}

	// Shutdown: drain the sink so the wedged shard can finish, then
	// close. Every accepted event must be scored.
	go func() {
		for range sink {
		}
	}()
	eng.Close()
	st := eng.Stats()
	if st.EventsProcessed != st.EventsSubmitted {
		t.Fatalf("processed %d of %d accepted events after close", st.EventsProcessed, st.EventsSubmitted)
	}
	close(sink)
}

// TestEngineRetiredGenerationsCollectable pins that nothing in the
// engine outlives the generations it served: once every session of a
// retired generation has ended, the generation (its detector and
// vocabulary) is garbage, however many reloads a daemon runs. The first
// generation stays reachable only through the test's own detector.
func TestEngineRetiredGenerationsCollectable(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	eng, err := NewEngine(det, EngineConfig{Shards: 2, Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	names := det.Vocabulary().Actions()
	const swaps = 32
	retired := make([]weak.Pointer[actionlog.Vocabulary], 0, swaps)
	for gen := 0; gen < swaps; gen++ {
		// Short sessions on both shards, ended before the next swap so
		// nothing pins the retiring generation.
		for sess := 0; sess < 4; sess++ {
			for i := 0; i < 3; i++ {
				ev := actionlog.Event{SessionID: fmt.Sprintf("s-%03d-%d", gen, sess), Action: names[i], Time: time.Unix(int64(i), 0)}
				if err := submitEvents(ctx, eng, []actionlog.Event{ev}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		eng.Flush()
		retired = append(retired, weak.Make(eng.Registry().Current().Det.Vocabulary()))
		if _, err := eng.Registry().Swap(trainCorpusNGram(t, int64(100+gen)), nil, "gen"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	for gen, wp := range retired {
		if live := wp.Value() != nil; live != (gen == 0) {
			t.Errorf("retired generation %d reachable = %v after its sessions ended", gen+1, live)
		}
	}
	runtime.KeepAlive(det)
}

// TestEngineSaturatedInternerReload pins that a reload is never refused
// its vocabulary: once the interner's learn budget is exhausted by junk
// names, an action introduced by an offline retrain + reload (never seen
// on the wire before saturation) is interned when the generation is
// installed and must be scored, not dropped as unknown.
func TestEngineSaturatedInternerReload(t *testing.T) {
	detA := smallNGramDetector(t)
	eng, err := NewEngine(detA, EngineConfig{
		Shards:         1,
		RecordSessions: true,
		Monitor:        MonitorConfig{LikelihoodFloor: 0, EWMAAlpha: 0.3, WarmupActions: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// Saturate the learn budget with junk.
	junk := make([]actionlog.Event, actionlog.DefaultLearnLimit)
	for i := range junk {
		junk[i] = actionlog.Event{SessionID: "junk", Action: fmt.Sprintf("junk-%05d", i), Time: time.Unix(int64(i), 0)}
	}
	for off := 0; off < len(junk); off += 256 {
		end := min(off+256, len(junk))
		if err := submitEvents(ctx, eng, junk[off:end], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.LearnedActions != actionlog.DefaultLearnLimit {
		t.Fatalf("learned %d actions, want the full budget %d", st.LearnedActions, actionlog.DefaultLearnLimit)
	}

	// A new generation whose vocabulary carries a name the interner has
	// never seen (and now can never learn).
	detB := grownNGramDetector(t, "zz-post-saturation")
	if _, err := eng.Registry().Swap(detB, nil, "grown"); err != nil {
		t.Fatal(err)
	}

	// The action the wire never interned must score, alone in its batch
	// or not.
	errsBefore := eng.Stats().ScoreErrors
	evs := []actionlog.Event{
		{SessionID: "fresh", Action: "a0", Time: time.Unix(0, 0)},
		{SessionID: "fresh", Action: "zz-post-saturation", Time: time.Unix(1, 0)},
	}
	if err := submitEvents(ctx, eng, evs[:1], nil); err != nil {
		t.Fatal(err)
	}
	if err := submitEvents(ctx, eng, evs[1:], nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Install the hook now (no session ends concurrently: the queues
	// are drained and idle eviction is off) and flush.
	var sum *SessionSummary
	done := make(chan SessionSummary, 8)
	eng.cfg.OnSessionEnd = func(s SessionSummary) { done <- s }
	eng.Flush()
	close(done)
	for s := range done {
		if s.SessionID == "fresh" {
			c := s
			sum = &c
		}
	}
	if sum == nil {
		t.Fatal("no summary for the fresh session")
	}
	if sum.Observed != 2 || sum.Unknown != 0 {
		t.Fatalf("fresh session observed/unknown = %d/%d, want 2/0 (post-saturation reload vocabulary not interned)", sum.Observed, sum.Unknown)
	}
	if got := eng.Stats().ScoreErrors; got != errsBefore {
		t.Fatalf("score errors grew %d -> %d on an in-vocabulary action", errsBefore, got)
	}
}
