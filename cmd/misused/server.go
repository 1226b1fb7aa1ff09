package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/pipeline"
	"misusedetect/internal/rollout"
	"misusedetect/internal/wire"
)

// ServerConfig configures the monitoring daemon.
type ServerConfig struct {
	// Listen is the TCP address to bind.
	Listen string
	// ModelDir is the model directory re-read by the {"cmd":"reload"}
	// control command; empty disables reload.
	ModelDir string
	// Engine configures the scoring engine. Its IdleExpiry must be
	// positive: a daemon never keeps sessions forever. Engine.Logf also
	// receives the daemon's own operational log lines.
	Engine core.EngineConfig
	// Adapter enables the {"cmd":"drift"} and {"cmd":"adapt"} control
	// commands; nil answers them with an error line.
	Adapter *pipeline.Adapter
	// Canary enables staged rollouts: {"cmd":"reload"} publishes the
	// model directory as a canary candidate (a fraction of new sessions)
	// instead of swapping it fleet-wide, and the "canary",
	// "canary-promote", and "canary-rollback" control commands inspect
	// and decide the pending rollout. Nil keeps the direct-swap reload.
	Canary *rollout.Controller
}

// writeTimeout bounds every outbound write so a client that stops
// reading cannot backpressure a shard indefinitely.
const writeTimeout = 30 * time.Second

// Alarm is the JSON line written back to clients when a session looks
// suspicious; it is the engine's alarm record verbatim.
type Alarm = core.Alarm

// inboundLine is one decoded client line: control lines carry a "cmd"
// field and batch frames a "batch" array, neither of which events have,
// so a single unmarshal serves all three.
type inboundLine struct {
	Cmd   string            `json:"cmd"`
	Batch []actionlog.Event `json:"batch"`
	actionlog.Event
}

// maxFieldLen bounds the string fields of one inbound event. Session IDs
// key the engine's per-shard session maps and user/action strings ride on
// every event and alarm, so a client pushing megabyte identifiers (the
// scanner admits lines up to 1 MiB) would bloat session state far beyond
// what any legitimate log shipper emits.
const maxFieldLen = 1024

// maxBatchLen bounds the number of events one {"batch":[...]} frame may
// carry; longer frames are rejected whole. Together with maxFieldLen and
// the scanner's 1 MiB line cap this bounds per-line work and memory no
// matter what a client sends.
const maxBatchLen = 512

// connParser decodes client lines into commands or tokenized events,
// interning each action name against the engine's interner during the
// parse — the engine never resolves an action string again. It is
// per-connection state: the decode struct, the batch slice's backing
// array, and the tokenized-event scratch are all reused across lines.
// Bare event lines and batch frames take a zero-copy fast scan
// (fastBatch) that lifts known action names straight from the wire
// buffer into tokens without allocating them; command lines and
// anything else outside the fast subset take the reflective decoder.
// Not safe for concurrent use.
type connParser struct {
	interner *actionlog.Interner
	in       inboundLine
	toks     []misusedBatch
	// hwm is the high-water mark of batch elements ever written: only
	// those can hold stale data, so a single-event line after a big
	// frame doesn't pay a full-capacity clear.
	hwm int
	// noFast disables the fast scanner (tests pin fast/slow equality).
	noFast bool
}

// misusedBatch aliases the engine's pre-tokenized event type.
type misusedBatch = core.BatchEvent

func newConnParser(interner *actionlog.Interner) *connParser {
	return &connParser{interner: interner, toks: make([]misusedBatch, 0, maxBatchLen)}
}

// parseInbound decodes and validates one client line. It returns either
// a non-empty control command, or 1..maxBatchLen tokenized events each
// with a non-empty session ID and action; anything else is an error.
// Precedence when fields are mixed on one line: a "cmd" makes it a
// command (batch and event fields are ignored), a "batch" makes it a
// batch frame (inline event fields are ignored). The returned events
// alias parser-owned scratch: they are valid until the next parseInbound
// call (the engine copies what it keeps during submission). Events of
// known actions carry only the token (empty Action string); the action
// name is materialized solely when it falls outside the interner.
func (p *connParser) parseInbound(line []byte) (cmd string, evs []misusedBatch, err error) {
	if !p.noFast {
		if evs, ok := p.fastBatch(line); ok {
			return "", evs, nil
		}
	}
	// Reset the reused decode struct. The batch backing array must be
	// cleared through every element a previous frame wrote: json reuses
	// existing elements when refilling a slice, and a shorter event
	// object would otherwise inherit stale fields from the previous
	// frame.
	p.in.Cmd = ""
	p.in.Event = actionlog.Event{}
	scratch := p.in.Batch[:cap(p.in.Batch)]
	if p.hwm > len(scratch) {
		p.hwm = len(scratch)
	}
	clear(scratch[:p.hwm])
	p.in.Batch = scratch[:0]

	err = json.Unmarshal(line, &p.in)
	// encoding/json extends the slice length element by element, so even
	// an error mid-array leaves len covering every written element.
	if n := len(p.in.Batch); n > p.hwm {
		p.hwm = n
	}
	if err != nil {
		return "", nil, fmt.Errorf("misused: bad line: %w", err)
	}
	if p.in.Cmd != "" {
		if len(p.in.Cmd) > maxFieldLen {
			return "", nil, fmt.Errorf("misused: command length %d exceeds %d", len(p.in.Cmd), maxFieldLen)
		}
		return p.in.Cmd, nil, nil
	}
	if len(p.in.Batch) > 0 {
		if len(p.in.Batch) > maxBatchLen {
			return "", nil, fmt.Errorf("misused: batch length %d exceeds %d", len(p.in.Batch), maxBatchLen)
		}
		p.toks = p.toks[:0]
		for i := range p.in.Batch {
			if err := validateEvent(&p.in.Batch[i]); err != nil {
				return "", nil, fmt.Errorf("misused: batch event %d: %w", i, err)
			}
			p.toks = append(p.toks, p.tokenize(&p.in.Batch[i]))
		}
		return "", p.toks, nil
	}
	if err := validateEvent(&p.in.Event); err != nil {
		return "", nil, fmt.Errorf("misused: %w", err)
	}
	p.toks = append(p.toks[:0], p.tokenize(&p.in.Event))
	return "", p.toks, nil
}

// tokenize interns one validated event. Events of known actions carry
// only the token — the Action string is dropped so both parse paths
// produce the same shape and the engine's copies stay string-free.
func (p *connParser) tokenize(ev *actionlog.Event) misusedBatch {
	be := misusedBatch{Ev: *ev, Tok: p.interner.Intern(ev.Action)}
	if be.Tok >= 0 {
		be.Ev.Action = ""
	}
	return be
}

// validateEvent enforces the per-event protocol bounds.
func validateEvent(ev *actionlog.Event) error {
	if ev.SessionID == "" || ev.Action == "" {
		return fmt.Errorf("event missing session_id or action")
	}
	for _, f := range []struct{ name, val string }{
		{"session_id", ev.SessionID}, {"user", ev.User}, {"action", ev.Action},
	} {
		if len(f.val) > maxFieldLen {
			return fmt.Errorf("event %s length %d exceeds %d", f.name, len(f.val), maxFieldLen)
		}
	}
	return nil
}

// Server is the TCP ingestion daemon: connections are thin decoders that
// submit events to the sharded scoring engine and stream back the alarms
// raised for the sessions they carry.
type Server struct {
	cfg    ServerConfig
	engine *core.Engine
	ln     net.Listener
	start  time.Time
	wg     sync.WaitGroup
}

// NewServer binds the listen address and starts the scoring engine over
// the model registry. The adaptation pipeline and the rollout controller
// share the registry with the engine, so what they install rolls out to
// new sessions.
func NewServer(reg *core.Registry, cfg ServerConfig) (*Server, error) {
	if cfg.Engine.IdleExpiry <= 0 {
		return nil, fmt.Errorf("misused: IdleExpiry must be positive, got %v", cfg.Engine.IdleExpiry)
	}
	engine, err := core.NewEngineRegistry(reg, cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("misused: start engine: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		engine.Close()
		return nil, fmt.Errorf("misused: listen %s: %w", cfg.Listen, err)
	}
	return &Server{cfg: cfg, engine: engine, ln: ln, start: time.Now()}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the scoring-engine counters.
func (s *Server) Stats() core.EngineStats { return s.engine.Stats() }

// Serve accepts connections until the context is canceled, then closes
// the listener, waits for every connection handler to finish, and drains
// the engine.
func (s *Server) Serve(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		s.ln.Close()
	}()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-ctx.Done():
				s.wg.Wait()
				s.engine.Close()
				<-done
				return nil
			default:
				// Listener failure: return without closing the engine —
				// live handlers may still be submitting and draining,
				// and the daemon exits on a Serve error anyway.
				return fmt.Errorf("misused: accept: %w", err)
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(ctx, conn)
		}()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Engine.Logf != nil {
		s.cfg.Engine.Logf(format, args...)
	}
}

// handle processes one client connection: decode events, submit them to
// the engine, and hand control replies to the connection's writer, which
// also streams back the alarms raised for this connection's sessions.
func (s *Server) handle(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		// Unblock both reads and stuck writes on shutdown, so a client
		// that stopped reading cannot wedge the writer (and through the
		// sink, a shard) during drain. Exits with the connection so
		// long-lived daemons don't park one goroutine per connection
		// ever accepted.
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Now())
		case <-connDone:
		}
	}()

	alarms := make(chan Alarm, 64)
	replies := make(chan any)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.write(ctx, conn, alarms, replies)
	}()

	// Per-connection parse and submission scratch: the decode struct and
	// the tokenized-event buffer live for the whole connection, so
	// steady-state ingestion re-uses one set of buffers per frame
	// instead of allocating per event. The parser interns each action
	// name against the engine's interner during the parse — the engine
	// receives pre-tokenized events and never resolves an action string
	// again.
	parser := newConnParser(s.engine.Interner())
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), wire.MaxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		cmd, evs, err := parser.parseInbound(line)
		if err != nil {
			s.logf("bad event from %s: %v", conn.RemoteAddr(), err)
			continue
		}
		if cmd != "" {
			replies <- s.handleCommand(ctx, cmd, conn.RemoteAddr())
			continue
		}
		if err := s.engine.SubmitTokens(ctx, evs, alarms); err != nil {
			s.logf("session %s: %v", evs[0].Ev.SessionID, err)
			continue
		}
	}

	// Reads are over: after Drain returns, every event this connection
	// submitted has been scored and no shard will send here again, so
	// closing the alarm channel is safe and flushes the writer. Not ctx:
	// at shutdown it is already cancelled, and Drain would return before
	// the shards are done with the sink.
	s.engine.Drain(context.Background())
	close(alarms)
	<-writerDone
}

// write is the connection's one writer, until the sink is closed. It
// writes in bursts: the alarm or reply it woke for, every alarm already
// buffered in the sink, and then the reply, if it woke for one, so a
// reply never overtakes an alarm that was waiting. Each burst is
// appended to one buffer and goes out in one write under one deadline,
// so a client that stops reading cannot wedge the sink and through it a
// shard. After the first failed write of a burst that carried alarms, or
// once shutdown begins, alarms are discarded (the sink must keep
// draining) and replies still attempted; a failed reply alone does not
// stop later alarms.
func (s *Server) write(ctx context.Context, conn net.Conn, alarms <-chan Alarm, replies <-chan any) {
	var buf []byte
	dead := false
	take := func(a *Alarm) {
		if dead || ctx.Err() != nil {
			return
		}
		var err error
		if buf, err = wire.AppendAlarm(buf, a); err != nil {
			s.logf("encode alarm for %s: %v", conn.RemoteAddr(), err)
		}
	}
	for {
		buf = buf[:0]
		var reply any
		select {
		case a, ok := <-alarms:
			if !ok {
				return
			}
			take(&a)
		case reply = <-replies:
		}
		// This goroutine is the sink's only reader, so the n alarms
		// buffered now are there to take.
		for n := len(alarms); n > 0; n-- {
			a := <-alarms
			take(&a)
		}
		withAlarms := len(buf) > 0
		if reply != nil {
			if b, err := json.Marshal(reply); err != nil {
				s.logf("encode reply to %s: %v", conn.RemoteAddr(), err)
			} else {
				buf = append(append(buf, b...), '\n')
			}
		}
		if len(buf) == 0 {
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := conn.Write(buf); err != nil {
			s.logf("write to %s: %v", conn.RemoteAddr(), err)
			dead = dead || withAlarms
		}
	}
}

// handleCommand returns the reply to one control command for the
// connection's writer. An unknown command gets an error line back, so a
// misbehaving client sees its mistake instead of silence.
func (s *Server) handleCommand(ctx context.Context, cmd string, from net.Addr) any {
	switch cmd {
	case "sync":
		if err := s.engine.Drain(ctx); err != nil {
			return &wire.ErrorReply{Error: fmt.Sprintf("sync: %v", err)}
		}
		fallthrough
	case "status":
		return &wire.StatusReply{
			Status: s.engine.Stats(),
			Uptime: time.Since(s.start).Round(time.Millisecond).String(),
		}
	case "reload":
		return s.handleReload()
	case "drift", "adapt":
		if s.cfg.Adapter == nil {
			return &wire.ErrorReply{Error: "adaptation disabled (start misused with -adapt)"}
		}
		if cmd == "adapt" {
			return s.handleAdapt()
		}
		return &wire.DriftReply{Drift: s.cfg.Adapter.Status()}
	case "canary", "canary-promote", "canary-rollback":
		if s.cfg.Canary == nil {
			return &wire.ErrorReply{Error: "canary rollouts disabled (start misused with -canary-frac)"}
		}
		if cmd != "canary" {
			return s.handleCanaryDecision(cmd)
		}
		return &wire.CanaryReply{Canary: s.cfg.Canary.Status()}
	default:
		s.logf("unknown command %q from %s", cmd, from)
		return &wire.ErrorReply{Error: fmt.Sprintf("unknown command %q", cmd)}
	}
}

// handleAdapt runs one manual adaptation cycle synchronously on the
// connection's goroutine (retraining takes seconds to minutes; the
// client sets its own timeout) and reports the cycle outcome. A
// guardrail refusal is a successful reply — the report says so.
func (s *Server) handleAdapt() any {
	rep, err := s.cfg.Adapter.Cycle("manual")
	if err != nil {
		s.logf("manual adaptation cycle: %v", err)
		return &wire.ErrorReply{Error: fmt.Sprintf("adapt: %v", err)}
	}
	verdict, _ := rep.Verdict()
	s.logf("manual adaptation cycle %s (AUC %.3f vs %.3f)", verdict, rep.NewAUC, rep.OldAUC)
	return &wire.AdaptReply{Adapt: rep}
}

// handleReload re-reads the model directory through core.LoadGeneration
// — which verifies each file against its manifest checksum before
// decoding it, so torn, truncated, or tampered directories are refused
// — and installs the new generation together with the directory's calibrated
// thresholds.json when present: as a canary candidate serving a
// fraction of new sessions when a rollout controller is wired in (the
// comparator decides promotion or quarantine later), else directly into
// the engine registry. Sessions already streaming keep their pinned
// generation.
func (s *Server) handleReload() any {
	if s.cfg.ModelDir == "" {
		return &wire.ErrorReply{Error: "reload unavailable: server started without a model directory"}
	}
	det, monitor, err := core.LoadGeneration(s.cfg.ModelDir)
	var mv *core.ModelVersion
	if err == nil {
		if s.cfg.Canary != nil {
			mv, err = s.cfg.Canary.Publish(det, monitor, s.cfg.ModelDir, s.cfg.ModelDir)
		} else {
			mv, err = s.engine.Registry().Swap(det, monitor, s.cfg.ModelDir)
		}
	}
	if err != nil {
		s.logf("reload %s: %v", s.cfg.ModelDir, err)
		return &wire.ErrorReply{Error: fmt.Sprintf("reload: %v", err)}
	}
	reply := wire.ReloadStatus{
		Version:  mv.Version,
		Backend:  mv.Det.Backend(),
		Clusters: mv.Det.ClusterCount(),
	}
	if s.cfg.Canary != nil {
		reply.Canary, reply.Fraction = true, s.cfg.Canary.Fraction()
	} else {
		s.logf("reloaded model from %s: version %d, backend %s, %d clusters",
			s.cfg.ModelDir, mv.Version, mv.Det.Backend(), mv.Det.ClusterCount())
	}
	return &wire.ReloadReply{Reload: reply}
}

// handleCanaryDecision force-promotes or force-rolls-back the pending
// canary on operator demand and replies with the applied verdict.
func (s *Server) handleCanaryDecision(cmd string) any {
	decide := s.cfg.Canary.Rollback
	if cmd == "canary-promote" {
		decide = s.cfg.Canary.Promote
	}
	v, err := decide()
	if err != nil {
		return &wire.ErrorReply{Error: fmt.Sprintf("%s: %v", cmd, err)}
	}
	return &wire.CanaryVerdictReply{Verdict: v}
}
