//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"misusedetect/internal/core"
)

// Alarm kinds as the compact code the alarm multiset is keyed by.
const (
	kindLowLikelihood = 1
	kindDownwardTrend = 2
)

var kindNames = map[string]uint8{
	core.AlarmLowLikelihood.String(): kindLowLikelihood,
	core.AlarmDownwardTrend.String(): kindDownwardTrend,
}

// alarmKey identifies one alarm in the multiset the correctness gate
// compares: which session, at which position, of which kind.
type alarmKey struct {
	sess, pos int32
	kind      uint8
}

func (k alarmKey) less(o alarmKey) bool {
	if k.sess != o.sess {
		return k.sess < o.sess
	}
	if k.pos != o.pos {
		return k.pos < o.pos
	}
	return k.kind < o.kind
}

// alarmRec is one alarm line as the client read it.
type alarmRec struct {
	alarmKey
	at time.Time
}

// statusMsg is one status reply with the time its line was read.
type statusMsg struct {
	st core.EngineStats
	at time.Time
}

// client is the benchmark's side of the one TCP connection: the calling
// goroutine writes, one reader goroutine demultiplexes status replies
// from alarm lines and stamps each alarm as it is read.
type client struct {
	conn   net.Conn
	status chan statusMsg
	done   chan struct{}
	// index resolves an alarm's session_id to the stream's session
	// number; it is published before the first event is written.
	index atomic.Pointer[map[string]int32]
	// alarmsRead and lastAlarm let the writer decide when the last
	// expected alarm has arrived without touching reader-owned state.
	alarmsRead atomic.Int64
	lastAlarm  atomic.Int64 // UnixNano of the newest alarm line

	// Owned by the reader goroutine until done is closed.
	alarms      []alarmRec
	alarmBytes  int64
	undecodable int
	firstBad    string
	readErr     error
}

func newClient(conn net.Conn) *client {
	c := &client{
		conn: conn,
		// One request is outstanding at a time; the slack absorbs a
		// reply that arrives after its waiter timed out.
		status: make(chan statusMsg, 4),
		done:   make(chan struct{}),
	}
	go c.read()
	return c
}

// read is the demultiplexing loop. Alarm lines are scanned by hand —
// three fields, no reflection — so the reader costs the two-CPU box as
// little as possible while the daemon is being measured.
func (c *client) read() {
	defer close(c.done)
	r := bufio.NewReaderSize(c.conn, 256<<10)
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			if len(line) > 0 {
				c.bad(line)
			}
			if !isClosed(err) {
				c.readErr = err
			}
			return
		}
		now := time.Now()
		if bytes.HasPrefix(line, []byte(`{"status":`)) {
			var reply struct {
				Status core.EngineStats `json:"status"`
			}
			if err := json.Unmarshal(line, &reply); err != nil {
				c.bad(line)
				continue
			}
			select {
			case c.status <- statusMsg{st: reply.Status, at: now}:
			default:
			}
			continue
		}
		index := c.index.Load()
		if index == nil {
			c.bad(line)
			continue
		}
		key, ok := parseAlarm(line, *index)
		if !ok {
			c.bad(line)
			continue
		}
		c.alarms = append(c.alarms, alarmRec{alarmKey: key, at: now})
		c.alarmBytes += int64(len(line))
		c.lastAlarm.Store(now.UnixNano())
		c.alarmsRead.Add(1)
	}
}

func (c *client) bad(line []byte) {
	if c.undecodable == 0 {
		c.firstBad = string(bytes.TrimSpace(line))
	}
	c.undecodable++
}

// isClosed reports the two ways the read loop ends normally: the daemon
// went away, or close() closed the connection under it.
func isClosed(err error) bool { return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) }

// field returns the bytes of a string-valued JSON field of an alarm
// line; alarm strings (session IDs, users, kinds) never need escaping in
// this benchmark's traffic.
func field(line []byte, key string) ([]byte, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return nil, false
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

// parseAlarm extracts the multiset key from one alarm line.
func parseAlarm(line []byte, index map[string]int32) (alarmKey, bool) {
	sid, ok1 := field(line, `"session_id":"`)
	kind, ok2 := field(line, `"kind":"`)
	i := bytes.Index(line, []byte(`"position":`))
	if !ok1 || !ok2 || i < 0 {
		return alarmKey{}, false
	}
	rest := line[i+len(`"position":`):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	pos, err := strconv.Atoi(string(rest[:n]))
	sess, known := index[string(sid)]
	k, kindKnown := kindNames[string(kind)]
	if err != nil || !known || !kindKnown {
		return alarmKey{}, false
	}
	return alarmKey{sess: sess, pos: int32(pos), kind: k}, true
}

// statusTimeout bounds one status round trip on an idle or draining
// daemon.
const statusTimeout = 30 * time.Second

// roundTrip requests one status snapshot and waits for the reply.
func (c *client) roundTrip() (statusMsg, error) {
	if _, err := c.conn.Write([]byte("{\"cmd\":\"status\"}\n")); err != nil {
		return statusMsg{}, fmt.Errorf("status request: %w", err)
	}
	select {
	case m := <-c.status:
		return m, nil
	case <-c.done:
		return statusMsg{}, fmt.Errorf("status reply: connection closed: %v", c.readErr)
	case <-time.After(statusTimeout):
		return statusMsg{}, fmt.Errorf("status reply: none within %v", statusTimeout)
	}
}

// await polls status every interval until ready accepts a snapshot.
func (c *client) await(what string, timeout, interval time.Duration, ready func(core.EngineStats) bool) (statusMsg, error) {
	deadline := time.Now().Add(timeout)
	for {
		m, err := c.roundTrip()
		if err != nil {
			return statusMsg{}, err
		}
		if ready(m.st) {
			return m, nil
		}
		if time.Now().After(deadline) {
			return statusMsg{}, fmt.Errorf("%s: not reached within %v (processed %d, compacted %d)",
				what, timeout, m.st.EventsProcessed, m.st.SessionsCompacted)
		}
		time.Sleep(interval)
	}
}

// close ends the connection and waits for the reader, after which the
// reader-owned fields may be read.
func (c *client) close() {
	c.conn.Close()
	<-c.done
}

// wireRun is everything one replay over the wire measured.
type wireRun struct {
	events  int           // timed events sent
	window  time.Duration // first timed write -> all processed and last alarm read
	cpu     time.Duration // daemon utime+stime over the window
	rssPeak float64       // daemon VmHWM at window end, MB
	before  core.EngineStats
	after   core.EngineStats
	// fillRate is the untimed warm-up's events/s (resident workload).
	fillRate float64

	latency   []float64 // per timed alarm, microseconds from its event's due time
	lag       []float64 // per paced write, microseconds the generator ran late
	stall     []float64 // per timed write call, microseconds
	statusRTT []float64 // idle status round trips, microseconds
	late      int       // paced events written more than lateAfter behind schedule
	bytesIn   int64     // timed bytes written

	alarms      []alarmRec // every alarm line read, warm-up included
	alarmBytes  int64
	undecodable int
	firstBad    string
}

// inflight bounds the events a saturation workload has outstanding (sent
// but not yet reported processed). Without a bound the kernel's socket
// buffers hold megabytes — the whole LSTM stream — and an alarm's
// latency is just its event's place in that backlog. With it the daemon
// always has at least three quarters of the window queued, which keeps
// both shards busy, and alarm latency under saturation is a stable
// number: about the window over the throughput.
const inflight = 8192

// lateAfter is how far behind its schedule a paced write may start
// before its events count as late.
const lateAfter = 10 * time.Millisecond

// drainTimeout bounds the wait for the daemon to finish what was sent.
const drainTimeout = 120 * time.Second

// replay drives one workload's stream through the daemon over c and
// measures the timed window. tr, when non-nil, records client spans.
func replay(sp *spec, st *stream, c *client, pid int, tr *tracer) (*wireRun, error) {
	index := st.sessionIndex()
	c.index.Store(&index)
	res := &wireRun{events: len(st.evs) - st.fill}

	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := c.roundTrip(); err != nil {
			return nil, err
		}
		res.statusRTT = append(res.statusRTT, us(time.Since(t0)))
	}

	if st.fill > 0 {
		// Untimed warm-up: fill the residents, then wait until the
		// daemon's sweep has compacted every one of them.
		units := st.encode(0, st.fill, sp.frame)
		t0 := time.Now()
		for _, u := range units {
			if _, err := c.conn.Write(u); err != nil {
				return nil, fmt.Errorf("warm-up write: %w", err)
			}
		}
		m, err := c.await("warm-up processed", drainTimeout, time.Millisecond, func(s core.EngineStats) bool {
			return s.EventsProcessed >= uint64(st.fill)
		})
		if err != nil {
			return nil, err
		}
		res.fillRate = float64(st.fill) / m.at.Sub(t0).Seconds()
		if _, err := c.await("warm-up compacted", drainTimeout, 20*time.Millisecond, func(s core.EngineStats) bool {
			return s.SessionsCompacted >= uint64(sp.residents)
		}); err != nil {
			return nil, err
		}
	}

	units := st.encode(st.fill, len(st.evs), sp.frame)
	starts := make([]time.Time, len(units)) // when each unit was due (paced) or written (saturation)
	res.stall = make([]float64, len(units))
	if sp.rate > 0 {
		res.lag = make([]float64, len(units))
	}
	base, err := c.roundTrip()
	if err != nil {
		return nil, err
	}
	res.before = base.st
	alarmsBefore := c.alarmsRead.Load()
	// Collect the encoding garbage before the clock starts: a client GC
	// pause inside the window would be charged to the daemon.
	runtime.GC()
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	processed := 0 // timed events the daemon has reported processed
	gap := time.Duration(0)
	if sp.rate > 0 {
		gap = time.Second / time.Duration(sp.rate)
	}
	for k, u := range units {
		now := time.Now()
		if sp.rate > 0 {
			// A unit is due when its last event is: a shipper cannot
			// close a batch before the batch's last event exists.
			next := min((k+1)*sp.frame, res.events)
			due := t0.Add(time.Duration(next-1) * gap)
			for now.Before(due) {
				pause(due.Sub(now))
				now = time.Now()
			}
			starts[k] = due
			res.lag[k] = us(now.Sub(due))
			if now.Sub(due) > lateAfter {
				res.late += next - k*sp.frame
			}
		} else {
			// Closed loop: no more than inflight events outstanding.
			// When the window is full, poll status until a quarter of
			// it has drained, so a full window costs a few status
			// requests rather than one per frame.
			if sent := k * sp.frame; sent-processed >= inflight {
				for {
					m, err := c.roundTrip()
					if err != nil {
						return nil, err
					}
					processed = int(m.st.EventsProcessed - base.st.EventsProcessed)
					if sent-processed <= inflight*3/4 {
						break
					}
					pause(time.Millisecond)
				}
				now = time.Now()
			}
			starts[k] = now
		}
		if _, err := c.conn.Write(u); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
		end := time.Now()
		res.stall[k] = us(end.Sub(now))
		res.bytesIn += int64(len(u))
		if tr != nil {
			tr.add(span{Name: "client.write", Layer: "client", Start: now, End: end, Parent: -1, Request: k})
		}
	}

	// The window closes when everything sent has been processed and the
	// last alarm those events raised has been read. alarms_raised is
	// final once events_processed has caught up (a shard counts an
	// event's alarms before it counts the event processed).
	target := base.st.EventsProcessed + uint64(res.events)
	final, err := c.await("drain", drainTimeout, 500*time.Microsecond, func(s core.EngineStats) bool {
		return s.EventsProcessed >= target
	})
	if err != nil {
		return nil, err
	}
	expect := alarmsBefore + int64(final.st.AlarmsRaised-base.st.AlarmsRaised) - int64(final.st.AlarmsShed-base.st.AlarmsShed)
	for deadline := time.Now().Add(10 * time.Second); c.alarmsRead.Load() < expect && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	end := final.at
	if last := time.Unix(0, c.lastAlarm.Load()); c.alarmsRead.Load() > alarmsBefore && last.After(end) {
		end = last
	}
	res.window = end.Sub(t0)
	res.after = final.st
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if res.rssPeak, err = procPeakRSS(pid); err != nil {
		return nil, err
	}

	c.close()
	if c.readErr != nil {
		return nil, fmt.Errorf("read from daemon: %w", c.readErr)
	}
	res.alarms, res.alarmBytes = c.alarms, c.alarmBytes
	res.undecodable, res.firstBad = c.undecodable, c.firstBad

	// An alarm's latency runs from the moment its event was due (paced)
	// or handed to the kernel (saturation) to the moment its line was
	// read; the alarm echoes the (session, position) that keys it.
	unitOf := st.unitIndex(sp.frame)
	for _, a := range res.alarms {
		k, ok := unitOf(a.sess, a.pos)
		if !ok {
			continue // warm-up alarm, or one the reference check will flag
		}
		res.latency = append(res.latency, us(a.at.Sub(starts[k])))
		if tr != nil && k < tr.requests {
			tr.add(span{Name: "client.alarm_read", Layer: "client", Start: starts[k], End: a.at, Parent: -1, Request: k})
		}
	}
	return res, nil
}

// pause blocks the calling thread for d. The open-loop generator cannot
// use time.Sleep: an idle Go scheduler parks in epoll_wait, whose
// timeout has millisecond resolution, so sub-millisecond sleeps wake up
// to a millisecond late (measured here: generator lag p90 953 us). A
// plain nanosleep wakes within the kernel's ~50 us timer slack.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only re-enters the caller's loop
}

// unitIndex returns a lookup from an event's (session, position) to the
// index of the timed client write that carried it.
func (st *stream) unitIndex(frame int) func(sess, pos int32) (int, bool) {
	// firstAt[s] is where session s's events start in at; at holds, per
	// session and position, the stream index of the event. A session's
	// positions in a stream are 0, 1, 2, ... without gaps.
	firstAt := make([]int32, len(st.sessions)+1)
	for _, e := range st.evs {
		firstAt[e.sess+1]++
	}
	for s := range st.sessions {
		firstAt[s+1] += firstAt[s]
	}
	at := make([]int32, len(st.evs))
	for i, e := range st.evs {
		at[firstAt[e.sess]+e.pos] = int32(i)
	}
	return func(sess, pos int32) (int, bool) {
		if sess < 0 || int(sess) >= len(st.sessions) || pos < 0 {
			return 0, false
		}
		off := firstAt[sess] + pos
		if off >= firstAt[sess+1] {
			return 0, false
		}
		i := int(at[off])
		if i < st.fill {
			return 0, false
		}
		return (i - st.fill) / frame, true
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
