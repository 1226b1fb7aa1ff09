package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// serve runs handle on every connection to a local listener until the
// test ends, and returns the listener's address.
func serve(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// echoDaemon answers like misused at a floor that alarms on every
// event: one alarm line per event as it reads, a status line for sync
// counting the events, an error line for any other command. Its alarm
// lines carry a 1 KiB kind, so a few thousand of them fill the socket
// buffers.
func echoDaemon(conn net.Conn) {
	kind := strings.Repeat("k", 1024)
	sc := bufio.NewScanner(conn)
	enc := json.NewEncoder(conn)
	events := 0
	for sc.Scan() {
		var in struct {
			Cmd string `json:"cmd"`
			actionlog.Event
		}
		var out any
		switch err := json.Unmarshal(sc.Bytes(), &in); {
		case err != nil:
			return
		case in.Cmd == "sync":
			out = &StatusReply{Status: core.EngineStats{EventsProcessed: uint64(events)}}
		case in.Cmd != "":
			out = &ErrorReply{Error: fmt.Sprintf("unknown command %q", in.Cmd)}
		default:
			out = &core.Alarm{SessionID: in.SessionID, Kind: kind, Position: events}
			events++
		}
		if enc.Encode(out) != nil {
			return
		}
	}
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStreamReadsWhileSending streams more traffic each way than the
// socket buffers hold: only a send that overlaps the reads finishes.
func TestStreamReadsWhileSending(t *testing.T) {
	c := dial(t, serve(t, echoDaemon))
	const n = 20000
	user := strings.Repeat("u", 1024)
	alarms, st, err := c.Stream(func() error {
		for i := 0; i < n; i++ {
			if err := c.SendEvent(&actionlog.Event{SessionID: fmt.Sprintf("s%d", i), User: user, Action: "a"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != n || st.EventsProcessed != n {
		t.Fatalf("%d alarms, %d events processed, want %d each", len(alarms), st.EventsProcessed, n)
	}
	for i, a := range alarms {
		if a.Position != i || a.SessionID != fmt.Sprintf("s%d", i) {
			t.Fatalf("alarm %d = %+v", i, a)
		}
	}
	// The connection stays usable after a Stream.
	if alarms, _, err := c.Sync(); err != nil || len(alarms) != 0 {
		t.Fatalf("second sync: %d alarms, %v", len(alarms), err)
	}
}

// TestStreamSendFailure: the send's error ends the read at once and is
// the error Stream returns.
func TestStreamSendFailure(t *testing.T) {
	c := dial(t, serve(t, echoDaemon))
	boom := errors.New("boom")
	if _, _, err := c.Stream(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Stream returned %v, want the send's error", err)
	}
}

// TestCommandErrorReply: an {"error":...} reply comes back as the line
// and as an error carrying its message.
func TestCommandErrorReply(t *testing.T) {
	c := dial(t, serve(t, echoDaemon))
	line, err := c.Command("frobnicate")
	if err == nil || !strings.Contains(err.Error(), `unknown command "frobnicate"`) {
		t.Fatalf("Command returned %v, want the daemon's error", err)
	}
	if string(line) != `{"error":"unknown command \"frobnicate\""}` {
		t.Fatalf("Command returned line %q", line)
	}
}

// TestCommandBoundsTheReply: a reply longer than MaxLine is an error,
// not an unbounded buffer.
func TestCommandBoundsTheReply(t *testing.T) {
	addr := serve(t, func(conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n')
		io.WriteString(conn, `{"status":"`+strings.Repeat("x", MaxLine)+"\"}\n")
	})
	if _, err := Call(addr, "status", 10*time.Second, &StatusReply{}); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Call on an over-long reply returned %v, want %v", err, bufio.ErrTooLong)
	}
}
