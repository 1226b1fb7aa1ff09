package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/wire"
)

// collectAlarms syncs the connection and returns the "kind@position"
// markers of one session's alarms read before the sync reply, in order.
func collectAlarms(t *testing.T, c *wire.Client, session string) []string {
	t.Helper()
	alarms, _ := mustSync(t, c)
	var got []string
	for _, a := range alarms {
		if a.SessionID == session {
			got = append(got, fmt.Sprintf("%s@%d", a.Kind, a.Position))
		}
	}
	return got
}

// TestServerBatchFrames pins the wire batch frame end to end: a session
// streamed as {"batch":[...]} frames produces exactly the alarms the
// same session produces as per-event lines, an oversized frame is
// rejected without killing the connection, and the daemon's status
// counters expose the batch and interner activity.
func TestServerBatchFrames(t *testing.T) {
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

	// A normal prefix followed by uniform noise: reliably alarming.
	names := det.Vocabulary().Actions()
	rng := rand.New(rand.NewSource(9))
	var actions []string
	actions = append(actions, sessions[0].Actions...)
	for i := 0; i < 30; i++ {
		actions = append(actions, names[rng.Intn(len(names))])
	}
	mkEvents := func(session string) []actionlog.Event {
		evs := make([]actionlog.Event, len(actions))
		for i, a := range actions {
			evs[i] = actionlog.Event{Time: time.Unix(int64(i), 0), User: "u", SessionID: session, Action: a}
		}
		return evs
	}

	// Phase 1 — reference: the session as one line per event.
	c1 := dial(t, srv)
	for _, ev := range mkEvents("single-s") {
		if err := c1.SendEvent(&ev); err != nil {
			t.Fatal(err)
		}
	}
	want := collectAlarms(t, c1, "single-s")
	if len(want) == 0 {
		t.Fatal("per-event path raised no alarms; the comparison would be vacuous")
	}

	// Phase 2 — the same actions as batch frames of mixed sizes.
	c2 := dial(t, srv)
	batchEvs := mkEvents("batch-s")
	for off := 0; off < len(batchEvs); {
		n := 1 + rng.Intn(7)
		if off+n > len(batchEvs) {
			n = len(batchEvs) - off
		}
		if err := c2.SendBatch(batchEvs[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	got := collectAlarms(t, c2, "batch-s")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch alarms diverge from per-event alarms:\nsingle: %v\nbatch:  %v", want, got)
	}

	// Phase 3 — an oversized frame must be dropped whole, and the
	// connection must survive to serve a status round trip.
	c3 := dial(t, srv)
	big := make([]actionlog.Event, maxBatchLen+1)
	for i := range big {
		big[i] = actionlog.Event{SessionID: "big-s", Action: names[0]}
	}
	if err := c3.SendBatch(big); err != nil {
		t.Fatal(err)
	}
	var sr wire.StatusReply
	reply(t, c3, "status", &sr)
	st := sr.Status
	if st.EventsProcessed != uint64(2*len(actions)) {
		t.Fatalf("daemon processed %d events, want %d (the oversized frame must not count)", st.EventsProcessed, 2*len(actions))
	}
	if st.BatchesSubmitted == 0 {
		t.Fatal("status reports no batches despite batch frames")
	}
	if st.InternedActions != det.Vocabulary().Size() || st.LearnedActions != 0 {
		t.Fatalf("interner counters = %d/%d, want %d/0", st.InternedActions, st.LearnedActions, det.Vocabulary().Size())
	}
}
