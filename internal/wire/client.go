package wire

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// Client is one connection to a misused daemon. Each line sent or read
// pushes the connection's deadline timeout ahead, so the timeout bounds
// every wait for progress, not a whole stream.
type Client struct {
	conn    net.Conn
	enc     *json.Encoder
	sc      *bufio.Scanner
	timeout time.Duration
}

// Dial connects to the daemon at addr.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	return &Client{conn: conn, enc: json.NewEncoder(conn), sc: sc, timeout: timeout}, nil
}

// Call dials addr, runs one Command, and decodes its reply line into
// out; it returns the line too.
func Call(addr, name string, timeout time.Duration, out any) ([]byte, error) {
	c, err := Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defer c.Close()
	line, err := c.Command(name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := json.Unmarshal(line, out); err != nil {
		return nil, fmt.Errorf("%s: parse reply %q: %w", name, line, err)
	}
	return line, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(v any) error {
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	if err := c.enc.Encode(v); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// SendEvent writes one event line.
func (c *Client) SendEvent(ev *actionlog.Event) error { return c.send(ev) }

// SendBatch writes one {"batch":[...]} frame.
func (c *Client) SendBatch(evs []actionlog.Event) error {
	return c.send(map[string][]actionlog.Event{"batch": evs})
}

func (c *Client) readLine() ([]byte, error) {
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	if c.sc.Scan() {
		return bytes.Clone(c.sc.Bytes()), nil
	}
	return nil, fmt.Errorf("wire: read: %w", cmp.Or(c.sc.Err(), io.ErrUnexpectedEOF))
}

// Command sends {"cmd":name} and returns the next line, its reply,
// without the newline; alarms in flight must be read first (Sync). An
// {"error":...} reply is returned both as the line and as an error.
func (c *Client) Command(name string) ([]byte, error) {
	if err := c.send(map[string]string{"cmd": name}); err != nil {
		return nil, err
	}
	line, err := c.readLine()
	var e ErrorReply
	if err == nil && json.Unmarshal(line, &e) == nil && e.Error != "" {
		err = fmt.Errorf("daemon: %s", e.Error)
	}
	return line, err
}

// Sync sends {"cmd":"sync"} and returns the alarm lines read before its
// reply, which follows every alarm of every event sent earlier on the
// connection, and the reply's counters, which cover every such event.
func (c *Client) Sync() ([]core.Alarm, core.EngineStats, error) {
	return c.Stream(func() error { return nil })
}

// Stream runs send, which writes through the Send methods, and then
// Sync's request on a goroutine, while this one reads the alarms up to
// the sync reply: the daemon writes alarms while it reads events, so a
// client that sent everything before reading could fill both socket
// buffers and stall it. A failure on either side closes the connection,
// which ends the other.
func (c *Client) Stream(send func() error) ([]core.Alarm, core.EngineStats, error) {
	sent := make(chan error, 1)
	go func() {
		err := send()
		if err == nil {
			err = c.send(map[string]string{"cmd": "sync"})
		}
		if err != nil {
			c.conn.Close()
		}
		sent <- err
	}()
	alarms, st, err := c.readToStatus()
	if err != nil {
		c.conn.Close()
	}
	// A send that failed on the close above is not the cause.
	if serr := <-sent; serr != nil && (err == nil || !errors.Is(serr, net.ErrClosed)) {
		return nil, core.EngineStats{}, serr
	}
	return alarms, st, err
}

// readToStatus reads alarm lines up to the next status reply.
func (c *Client) readToStatus() ([]core.Alarm, core.EngineStats, error) {
	var alarms []core.Alarm
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, core.EngineStats{}, err
		}
		var l struct {
			Status *core.EngineStats `json:"status"`
			ErrorReply
			core.Alarm
		}
		switch err := json.Unmarshal(line, &l); {
		case err != nil:
			return nil, core.EngineStats{}, fmt.Errorf("wire: undecodable line %q: %w", line, err)
		case l.Error != "":
			return nil, core.EngineStats{}, fmt.Errorf("wire: daemon: %s", l.Error)
		case l.Status != nil:
			return alarms, *l.Status, nil
		case l.SessionID == "":
			return nil, core.EngineStats{}, fmt.Errorf("wire: line %q is neither an alarm nor a status reply", line)
		}
		alarms = append(alarms, l.Alarm)
	}
}
