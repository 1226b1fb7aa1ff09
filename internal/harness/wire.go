package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
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
// newline-delimited JSON events followed by one {"cmd":"sync"}, and
// folds the alarm lines the daemon writes before the sync's status reply
// — every alarm those events raised — into a detection-quality report at
// the daemon's configured thresholds. Session IDs are salted per
// invocation so repeated runs against a long-lived daemon always start
// cold sessions. The timeout is per operation (1024 events sent, or the
// wait for the reply), not dial-to-death, so long replays against a busy
// daemon do not die on a deadline set before the first event was sent.
func ReplayWire(addr string, labeled []LabeledSession, timeout time.Duration) (*WireReport, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("harness: dial %s: %w", addr, err)
	}
	defer conn.Close()
	labeled = saltLabeled(labeled)
	stream := flattenLabeled(labeled)

	// The daemon writes alarms back while it reads events, so the events
	// go out on their own goroutine while this one reads: a client that
	// sent everything before reading could fill both socket buffers and
	// stall the daemon. A failed send fails the read too (the same reset
	// or deadline), and closing the connection ends a blocked send.
	go func() {
		enc := json.NewEncoder(conn)
		for i := range stream {
			if i%1024 == 0 {
				conn.SetDeadline(time.Now().Add(timeout))
			}
			if enc.Encode(&stream[i]) != nil {
				return
			}
		}
		conn.SetDeadline(time.Now().Add(timeout))
		io.WriteString(conn, "{\"cmd\":\"sync\"}\n")
	}()

	var alarms []core.Alarm
	var st *core.EngineStats
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for st == nil && err == nil && sc.Scan() {
		var line struct {
			Error  string            `json:"error"`
			Status *core.EngineStats `json:"status"`
			core.Alarm
		}
		if err = json.Unmarshal(sc.Bytes(), &line); err != nil {
			err = fmt.Errorf("undecodable daemon line %q: %w", sc.Text(), err)
		} else if line.Error != "" {
			err = fmt.Errorf("daemon error: %s", line.Error)
		} else if line.Status != nil {
			st = line.Status
		} else if line.SessionID != "" {
			alarms = append(alarms, line.Alarm)
		}
	}
	if st == nil {
		if err == nil {
			err = sc.Err()
		}
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("harness: sync reply: %w", err)
	}
	return &WireReport{
		Addr:           addr,
		Backend:        st.Backend,
		ModelVersion:   st.ModelVersion,
		Shards:         st.Shards,
		Events:         len(stream),
		AlarmsReceived: len(alarms),
		Detection:      foldAlarms(alarms, labeled),
	}, nil
}
