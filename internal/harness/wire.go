package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"misusedetect/internal/core"
)

// WireReport is the alarm-level outcome of replaying labeled traffic
// against a live misused daemon over TCP. Unlike the in-process
// ReplayReport it measures the deployed stack — wire parsing, sharding,
// write backpressure — at whatever thresholds the daemon is running,
// which is exactly what a canary check wants.
type WireReport struct {
	Addr string `json:"addr"`
	// Backend, ModelVersion, and Shards echo the daemon's status line.
	Backend      string `json:"backend"`
	ModelVersion uint64 `json:"model_version"`
	Shards       int    `json:"shards"`
	Events       int    `json:"events"`
	// AlarmsReceived counts alarm lines read back on this connection.
	AlarmsReceived int `json:"alarms_received"`
	Detection
}

// wireClient demultiplexes one daemon connection: alarm lines accumulate
// under a lock, status replies go to a channel, everything is read by a
// single goroutine so the connection never backpressures the daemon.
type wireClient struct {
	conn    net.Conn
	enc     *json.Encoder
	timeout time.Duration
	status  chan core.EngineStats
	done    chan error

	mu     sync.Mutex
	alarms []core.Alarm
}

func dialWire(addr string, timeout time.Duration) (*wireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("harness: dial %s: %w", addr, err)
	}
	c := &wireClient{
		conn:    conn,
		enc:     json.NewEncoder(conn),
		timeout: timeout,
		status:  make(chan core.EngineStats, 16),
		done:    make(chan error, 1),
	}
	c.extend()
	go c.read()
	return c, nil
}

// extend pushes the connection deadline out by the configured timeout:
// the budget is per operation (a status round trip, a burst of writes),
// not dial-to-death, so long replays against a busy daemon don't die on
// a deadline set before the first event was even sent.
func (c *wireClient) extend() { c.conn.SetDeadline(time.Now().Add(c.timeout)) }

// read is the demux loop: every inbound line is a status reply, an error
// line, or an alarm.
func (c *wireClient) read() {
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var probe struct {
			Error     string            `json:"error"`
			Status    *core.EngineStats `json:"status"`
			SessionID string            `json:"session_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			c.done <- fmt.Errorf("harness: undecodable daemon line %q: %w", sc.Text(), err)
			return
		}
		switch {
		case probe.Error != "":
			c.done <- fmt.Errorf("harness: daemon error: %s", probe.Error)
			return
		case probe.Status != nil:
			c.status <- *probe.Status
		case probe.SessionID != "":
			var a core.Alarm
			if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
				c.done <- fmt.Errorf("harness: bad alarm line %q: %w", sc.Text(), err)
				return
			}
			c.mu.Lock()
			c.alarms = append(c.alarms, a)
			c.mu.Unlock()
		}
	}
	c.done <- sc.Err()
}

func (c *wireClient) close() { c.conn.Close() }

// statusRoundTrip requests one status snapshot.
func (c *wireClient) statusRoundTrip() (core.EngineStats, error) {
	c.extend()
	if _, err := fmt.Fprintf(c.conn, "{\"cmd\":\"status\"}\n"); err != nil {
		return core.EngineStats{}, fmt.Errorf("harness: status request: %w", err)
	}
	select {
	case st := <-c.status:
		return st, nil
	case err := <-c.done:
		if err == nil {
			err = fmt.Errorf("connection closed")
		}
		return core.EngineStats{}, fmt.Errorf("harness: status reply: %w", err)
	}
}

// awaitProcessed polls status until the daemon has scored target events
// in total.
func (c *wireClient) awaitProcessed(target uint64, deadline time.Time) (core.EngineStats, error) {
	for {
		st, err := c.statusRoundTrip()
		if err != nil {
			return core.EngineStats{}, err
		}
		if st.EventsProcessed >= target {
			return st, nil
		}
		if time.Now().After(deadline) {
			return core.EngineStats{}, fmt.Errorf("harness: daemon processed %d of %d events before the deadline",
				st.EventsProcessed, target)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// snapshotAlarms returns the alarms read so far.
func (c *wireClient) snapshotAlarms() []core.Alarm {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.Alarm(nil), c.alarms...)
}

// saltLabeled clones the labeled sessions with a per-invocation session
// ID suffix. The daemon keys session monitors globally by session ID
// (with a long idle expiry), so replaying the same deterministic IDs
// twice against one daemon would resume the first run's monitors —
// past their warmup, with carried-over EWMA state — and silently skew
// the report.
func saltLabeled(labeled []LabeledSession) []LabeledSession {
	salt := time.Now().UnixNano()
	out := make([]LabeledSession, len(labeled))
	for i, l := range labeled {
		s := l.Session.Clone()
		s.ID = fmt.Sprintf("%s.%x", s.ID, salt)
		out[i] = l
		out[i].Session = s
	}
	return out
}

// ReplayWire streams the labeled sessions to a live misused daemon as
// newline-delimited JSON events, waits until the daemon has scored all
// of them, and folds the alarm lines it streamed back into a
// detection-quality report at the daemon's configured thresholds.
// Session IDs are salted per invocation so repeated runs against a
// long-lived daemon always start cold sessions.
func ReplayWire(addr string, labeled []LabeledSession, timeout time.Duration) (*WireReport, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	c, err := dialWire(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.close()
	base, err := c.statusRoundTrip()
	if err != nil {
		return nil, err
	}
	labeled = saltLabeled(labeled)
	stream := flattenLabeled(labeled)
	c.extend()
	for i := range stream {
		if i%1024 == 0 {
			c.extend()
		}
		if err := c.enc.Encode(&stream[i]); err != nil {
			return nil, fmt.Errorf("harness: send event: %w", err)
		}
	}
	deadline := time.Now().Add(timeout)
	st, err := c.awaitProcessed(base.EventsProcessed+uint64(len(stream)), deadline)
	if err != nil {
		return nil, err
	}
	// Alarm lines travel on a different daemon goroutine than status
	// replies, so a just-raised alarm may still be in flight when the
	// processed counter catches up: wait for the alarm stream to go
	// quiet before snapshotting.
	settled := c.snapshotAlarms()
	for {
		time.Sleep(50 * time.Millisecond)
		next := c.snapshotAlarms()
		if len(next) == len(settled) || time.Now().After(deadline) {
			settled = next
			break
		}
		settled = next
	}

	return &WireReport{
		Addr:           addr,
		Backend:        st.Backend,
		ModelVersion:   st.ModelVersion,
		Shards:         st.Shards,
		Events:         len(stream),
		AlarmsReceived: len(settled),
		Detection:      foldAlarms(settled, labeled),
	}, nil
}
