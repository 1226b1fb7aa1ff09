package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/wire"
)

// recordConn is a net.Conn for the connection writer alone: it records
// what each Write carried and fails the first fail of them.
type recordConn struct {
	net.Conn
	mu     sync.Mutex
	fail   int
	writes [][]byte
	wrote  chan struct{} // one value per Write, when non-nil
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(b))
	failed := len(c.writes) <= c.fail
	c.mu.Unlock()
	if c.wrote != nil {
		c.wrote <- struct{}{}
	}
	if failed {
		return 0, errors.New("injected write failure")
	}
	return len(b), nil
}

func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

func (c *recordConn) RemoteAddr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// startWriter runs Server.write on conn and returns its sinks and a
// func that closes the alarm sink and waits for the writer to return.
func startWriter(t *testing.T, conn net.Conn) (chan<- Alarm, chan<- any, func()) {
	t.Helper()
	s := &Server{cfg: ServerConfig{Engine: core.EngineConfig{Logf: t.Logf}}}
	alarms := make(chan Alarm, 64) // the size of a connection's sink in handle
	replies := make(chan any)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.write(context.Background(), conn, alarms, replies)
	}()
	return alarms, replies, func() {
		close(alarms)
		<-done
	}
}

func testAlarm(i int) Alarm {
	return Alarm{
		Time:      time.Date(2019, 3, 1, 10, 0, 0, i, time.UTC),
		SessionID: fmt.Sprintf("s%07d", i),
		User:      "u",
		Kind:      core.AlarmLowLikelihood.String(),
		Position:  i, Cluster: 1, ModelVersion: 1, Likelihood: 0.01,
	}
}

// encodeLine is json.Encoder's line for v.
func encodeLine(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestServerWriteFailedAlarmLetsReplyThrough pins the writer's failure
// rule: after an alarm write fails, later alarms are discarded and a
// later sync reply is still written, alone.
func TestServerWriteFailedAlarmLetsReplyThrough(t *testing.T) {
	conn := &recordConn{fail: 1, wrote: make(chan struct{}, 4)}
	alarms, replies, stop := startWriter(t, conn)
	first := testAlarm(1)
	alarms <- first
	<-conn.wrote
	alarms <- testAlarm(2)
	syncReply := &wire.StatusReply{Status: core.EngineStats{EventsProcessed: 2}, Uptime: "1s"}
	replies <- syncReply
	stop()
	if len(conn.writes) != 2 {
		t.Fatalf("writer made %d writes, want the failed alarm and the reply: %q", len(conn.writes), conn.writes)
	}
	if got, want := string(conn.writes[0]), encodeLine(t, &first); got != want {
		t.Fatalf("failed write carried %q, want the first alarm %q", got, want)
	}
	if got, want := string(conn.writes[1]), encodeLine(t, syncReply); got != want {
		t.Fatalf("write after the failure carried %q, want only the reply %q", got, want)
	}
}

// TestServerWriteFailedReplyKeepsAlarms pins the other half of the
// failure rule: a failed write that carried only a reply does not stop
// the alarms after it.
func TestServerWriteFailedReplyKeepsAlarms(t *testing.T) {
	conn := &recordConn{fail: 1, wrote: make(chan struct{}, 4)}
	alarms, replies, stop := startWriter(t, conn)
	replies <- &wire.StatusReply{Uptime: "1s"}
	<-conn.wrote
	later := testAlarm(2)
	alarms <- later
	select {
	case <-conn.wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("the alarm after a failed reply was never written")
	}
	stop()
	if len(conn.writes) != 2 {
		t.Fatalf("writer made %d writes, want the failed reply and the alarm: %q", len(conn.writes), conn.writes)
	}
	if got, want := string(conn.writes[1]), encodeLine(t, &later); got != want {
		t.Fatalf("write after the failed reply carried %q, want the alarm %q", got, want)
	}
}

// TestServerWriteReplyAfterQueuedAlarms pins the writer's ordering: a
// reply goes out after every alarm that was in the sink when the reply
// arrived, whichever the writer wakes for first.
func TestServerWriteReplyAfterQueuedAlarms(t *testing.T) {
	const queued = 10
	var want bytes.Buffer
	for i := 0; i < queued; i++ {
		a := testAlarm(i)
		want.WriteString(encodeLine(t, &a))
	}
	status := &wire.StatusReply{Uptime: "2s"}
	want.WriteString(encodeLine(t, status))
	for round := 0; round < 50; round++ {
		conn := &recordConn{}
		alarms, replies, stop := startWriter(t, conn)
		for i := 0; i < queued; i++ {
			alarms <- testAlarm(i)
		}
		replies <- status
		stop()
		if got := bytes.Join(conn.writes, nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: the writer wrote\n%s\nwant\n%s", round, got, want.Bytes())
		}
	}
}
