package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// wireBatchFrame is the client-side encoding of one batch frame.
type wireBatchFrame struct {
	Batch []actionlog.Event `json:"batch"`
}

// collectAlarms reads alarm lines for one session until the stream has
// been quiet past the deadline, returning "kind@position" markers in
// order. The connection is dedicated to one phase: the sticky read
// timeout ends it.
func collectAlarms(t *testing.T, sc *bufio.Scanner, conn net.Conn, session string) []string {
	t.Helper()
	var got []string
	for {
		conn.SetReadDeadline(time.Now().Add(700 * time.Millisecond))
		if !sc.Scan() {
			return got
		}
		var a Alarm
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad alarm line %q: %v", sc.Text(), err)
		}
		if a.SessionID == session {
			got = append(got, fmt.Sprintf("%s@%d", a.Kind, a.Position))
		}
	}
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
	dial := func() (net.Conn, *json.Encoder, *bufio.Scanner) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		return conn, json.NewEncoder(conn), sc
	}

	// Phase 1 — reference: the session as one line per event.
	conn1, enc1, sc1 := dial()
	for _, ev := range mkEvents("single-s") {
		if err := enc1.Encode(&ev); err != nil {
			t.Fatal(err)
		}
	}
	want := collectAlarms(t, sc1, conn1, "single-s")
	if len(want) == 0 {
		t.Fatal("per-event path raised no alarms; the comparison would be vacuous")
	}

	// Phase 2 — the same actions as batch frames of mixed sizes.
	conn2, enc2, sc2 := dial()
	batchEvs := mkEvents("batch-s")
	for off := 0; off < len(batchEvs); {
		n := 1 + rng.Intn(7)
		if off+n > len(batchEvs) {
			n = len(batchEvs) - off
		}
		if err := enc2.Encode(&wireBatchFrame{Batch: batchEvs[off : off+n]}); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	got := collectAlarms(t, sc2, conn2, "batch-s")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch alarms diverge from per-event alarms:\nsingle: %v\nbatch:  %v", want, got)
	}

	// Phase 3 — an oversized frame must be dropped whole, and the
	// connection must survive to serve a status round trip.
	conn3, enc3, sc3 := dial()
	big := make([]actionlog.Event, maxBatchLen+1)
	for i := range big {
		big[i] = actionlog.Event{SessionID: "big-s", Action: names[0]}
	}
	if err := enc3.Encode(&wireBatchFrame{Batch: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn3, "{\"cmd\":\"status\"}\n"); err != nil {
		t.Fatal(err)
	}
	conn3.SetReadDeadline(time.Now().Add(5 * time.Second))
	var st *core.EngineStats
	for sc3.Scan() {
		var probe struct {
			Status *core.EngineStats `json:"status"`
		}
		if err := json.Unmarshal(sc3.Bytes(), &probe); err == nil && probe.Status != nil {
			st = probe.Status
			break
		}
	}
	if st == nil {
		t.Fatalf("no status reply after oversized frame: %v", sc3.Err())
	}
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
