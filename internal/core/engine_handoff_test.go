package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/corpus"
)

// serialBySession replays events through the serial reference and
// returns each session's alarms as JSON, in the session's order. The
// wire format omits Seq, so the engine's global submission numbering
// does not enter the comparison.
func serialBySession(t *testing.T, det *Detector, mcfg MonitorConfig, events []actionlog.Event) map[string]string {
	t.Helper()
	serial, err := det.ReplaySerial(mcfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("serial replay raised no alarms; the comparison would be vacuous")
	}
	return alarmsBySession(t, serial)
}

func alarmsBySession(t *testing.T, alarms []Alarm) map[string]string {
	t.Helper()
	per := map[string][]Alarm{}
	for _, a := range alarms {
		per[a.SessionID] = append(per[a.SessionID], a)
	}
	out := make(map[string]string, len(per))
	for id, as := range per {
		b, err := json.Marshal(as)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = string(b)
	}
	return out
}

func assertSameSessionAlarms(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: alarms for %d sessions, serial reference has %d", label, len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("%s: session %s alarms diverge from the serial reference\nengine: %s\nserial: %s", label, id, got[id], w)
		}
	}
}

// TestEngineHandoffInlineWhenIdle pins the idle-shard hand-off: one
// goroutine submitting single events to a 1-shard engine finds the shard
// idle every time, so with a sink that always has room (or no sink) every
// submission is scored on the caller's goroutine, and the alarms are the
// serial reference's byte for byte.
func TestEngineHandoffInlineWhenIdle(t *testing.T) {
	det := corpusDetector(t)
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
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, withSink := range []bool{true, false} {
		eng, err := NewEngine(det, EngineConfig{Shards: 1, Monitor: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		var sink chan Alarm
		if withSink {
			// Room for every alarm the stream can raise: nothing drains
			// the sink until the end.
			sink = make(chan Alarm, maxAlarmsPerEvent*len(events))
		}
		for i := range events {
			if err := submitEvents(ctx, eng, events[i:i+1], sink); err != nil {
				t.Fatal(err)
			}
		}
		st := eng.Stats()
		if st.BatchesInline != uint64(len(events)) || st.BatchesSubmitted != uint64(len(events)) {
			t.Fatalf("sink=%v: %d of %d batches inline (%d submitted), want all", withSink, st.BatchesInline, len(events), st.BatchesSubmitted)
		}
		if st.EventsProcessed != uint64(len(events)) {
			t.Fatalf("sink=%v: processed %d of %d events on return", withSink, st.EventsProcessed, len(events))
		}
		if withSink {
			eng.Drain(context.Background())
			close(sink)
			var got []Alarm
			for a := range sink {
				got = append(got, a)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(want) {
				t.Fatalf("inline alarm stream diverges from the serial reference (%d vs %d alarms)", len(got), len(serial))
			}
		} else if st.AlarmsRaised != uint64(len(serial)) {
			t.Fatalf("nil sink: %d alarms raised, serial reference has %d", st.AlarmsRaised, len(serial))
		}
		eng.Close()
	}
}

// TestEngineHandoffUnbufferedSinkNeverInline pins the sink rule of the
// hand-off: an unbuffered sink never has room for an alarm, so a
// submission with one always goes through the shard's queue, where the
// shard goroutine — not the caller — waits on the sink's reader.
func TestEngineHandoffUnbufferedSinkNeverInline(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	mcfg := DefaultMonitorConfig()
	want := serialBySession(t, det, mcfg, events)
	eng, err := NewEngine(det, EngineConfig{Shards: 1, Monitor: mcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sink := make(chan Alarm)
	done := make(chan []Alarm, 1)
	go func() {
		var got []Alarm
		for a := range sink {
			got = append(got, a)
		}
		done <- got
	}()
	ctx := context.Background()
	for i := range events {
		if err := submitEvents(ctx, eng, events[i:i+1], sink); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain(context.Background())
	close(sink)
	got := <-done
	st := eng.Stats()
	if st.BatchesInline != 0 || st.BatchesSubmitted != uint64(len(events)) {
		t.Fatalf("unbuffered sink: %d inline of %d batches, want 0 of %d", st.BatchesInline, st.BatchesSubmitted, len(events))
	}
	assertSameSessionAlarms(t, "unbuffered sink", alarmsBySession(t, got), want)
}

// TestEngineHandoffConcurrentMatchesSerial races inline runs against the
// shard goroutines: concurrent submitters, each owning a disjoint set of
// sessions and its own sink, mix single events (which run inline when
// their shard is idle) with frames of several events (which span shards
// on a multi-shard engine, and always queue then). Every session must
// raise exactly the serial reference's alarms, in order.
func TestEngineHandoffConcurrentMatchesSerial(t *testing.T) {
	det := corpusDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	mcfg := DefaultMonitorConfig()
	want := serialBySession(t, det, mcfg, events)
	const submitters = 4
	owner := map[string]int{}
	for _, ev := range events {
		if _, ok := owner[ev.SessionID]; !ok {
			owner[ev.SessionID] = len(owner) % submitters
		}
	}
	for _, shards := range []int{1, 3} {
		eng, err := NewEngine(det, EngineConfig{Shards: shards, QueueDepth: 16, Monitor: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got []Alarm
		var wg sync.WaitGroup
		for f := 0; f < submitters; f++ {
			var mine []actionlog.Event
			for _, ev := range events {
				if owner[ev.SessionID] == f {
					mine = append(mine, ev)
				}
			}
			wg.Add(1)
			go func(f int, mine []actionlog.Event) {
				defer wg.Done()
				sink, collect := collectAlarms(eng)
				rng := rand.New(rand.NewSource(int64(shards*100 + f)))
				ctx := context.Background()
				for off := 0; off < len(mine); {
					n := 1
					if rng.Intn(4) == 0 {
						n = 2 + rng.Intn(7)
					}
					n = min(n, len(mine)-off)
					if err := submitEvents(ctx, eng, mine[off:off+n], sink); err != nil {
						t.Error(err)
						break
					}
					off += n
				}
				alarms := collect()
				mu.Lock()
				got = append(got, alarms...)
				mu.Unlock()
			}(f, mine)
		}
		wg.Wait()
		st := eng.Stats()
		eng.Close()
		if t.Failed() {
			return
		}
		if st.EventsProcessed != uint64(len(events)) {
			t.Fatalf("shards=%d: processed %d of %d events", shards, st.EventsProcessed, len(events))
		}
		t.Logf("shards=%d: %d of %d batches inline", shards, st.BatchesInline, st.BatchesSubmitted)
		assertSameSessionAlarms(t, "concurrent", alarmsBySession(t, got), want)
	}
}

// TestEngineSubmitSteadyStateZeroAllocs pins the single-event submit at
// zero allocations in steady state, on the inline path (a nil sink) and
// the queued path (a sink too small for the inline rule), on 1 and 2
// shards. The monitor never alarms, so nothing is sent to the sink.
func TestEngineSubmitSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled batches on purpose")
	}
	det := trainCorpusNGram(t, 11)
	names := det.Vocabulary().Actions()
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		for _, inline := range []bool{true, false} {
			eng, err := NewEngine(det, EngineConfig{Shards: shards, Monitor: MonitorConfig{EWMAAlpha: 0.3}})
			if err != nil {
				t.Fatal(err)
			}
			var sink chan Alarm
			if !inline {
				sink = make(chan Alarm, maxAlarmsPerEvent-1)
			}
			ev := []BatchEvent{{Ev: actionlog.Event{SessionID: "s-steady", User: "u"}}}
			i := 0
			submit := func() {
				ev[0].Tok = eng.Interner().Intern(names[i%len(names)])
				i++
				if err := eng.SubmitTokens(ctx, ev, sink); err != nil {
					t.Fatal(err)
				}
			}
			// Past the routing vote, with the shard's scratch grown.
			for range 256 {
				submit()
			}
			if err := eng.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(500, submit)
			if err := eng.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			st := eng.Stats()
			eng.Close()
			if allocs != 0 {
				t.Errorf("shards=%d inline=%v: %.2f allocs per single-event submit, want 0", shards, inline, allocs)
			}
			want := uint64(0)
			if inline {
				want = st.BatchesSubmitted
			}
			if st.BatchesInline != want {
				t.Fatalf("shards=%d inline=%v: %d of %d batches inline, want %d", shards, inline, st.BatchesInline, st.BatchesSubmitted, want)
			}
		}
	}
}
