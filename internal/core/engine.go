package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/scorer"
)

// Alarm is one engine output record: a session looked suspicious at a
// position. The JSON encoding is the wire format of the misused daemon.
type Alarm struct {
	// Seq is the global submission sequence number of the event that
	// raised the alarm; Replay orders the alarms it collects by it. It is
	// engine-internal and excluded from the wire format.
	Seq       uint64    `json:"-"`
	Time      time.Time `json:"time"`
	SessionID string    `json:"session_id"`
	User      string    `json:"user"`
	Kind      string    `json:"kind"`
	Position  int       `json:"position"`
	Cluster   int       `json:"cluster"`
	// ModelVersion is the registry generation that scored the session;
	// all alarms of one session carry the same version (sessions are
	// pinned to the generation they started on).
	ModelVersion uint64  `json:"model_version"`
	Likelihood   float64 `json:"likelihood"`
}

// EngineConfig tunes the sharded scoring engine.
type EngineConfig struct {
	// Shards is the number of independent scoring shards; session IDs are
	// hashed onto them. Defaults to 4.
	Shards int
	// QueueDepth is the per-shard event buffer, counted in queue messages
	// (a batch occupies one slot regardless of size). A full queue blocks
	// SubmitTokens: backpressure propagates to the producer instead of
	// growing memory without bound. Defaults to 256.
	QueueDepth int
	// IdleExpiry evicts sessions that have not seen an event for this
	// long; 0 disables eviction (replay and tests).
	IdleExpiry time.Duration
	// CompactAfter marks sessions that have not seen an event for this
	// long as dormant: each moves to its shard's cold list (the eviction
	// order of compacted sessions) and counts in SessionsCompacted, and
	// its next event wakes it transparently. A session past its routing
	// vote is already its own snapshot (the monitor scalars plus the
	// routed stream, no scratch), so neither direction copies state or
	// changes MemBytes, and scores continue byte-identically. 0 disables
	// background compaction; Engine.Compact compacts on demand
	// regardless. Only sessions past the routing-vote freeze are
	// eligible — younger ones stay live until they either freeze or hit
	// IdleExpiry.
	CompactAfter time.Duration
	// MaxSessions caps resident sessions (live + compacted) across all
	// shards. At the cap, events of new sessions are shed (dropped and
	// counted in ShedSessions/ShedEvents) rather than admitted — the
	// first stage of the shed policy: refuse new work before touching
	// existing sessions. 0 means uncapped.
	MaxSessions int
	// MemBudget bounds the engine's accounted session memory in bytes
	// (the MemBytes gauge: monitors, streams, recorded tokens). Over
	// budget, new sessions are refused (as with MaxSessions) and the
	// sweep additionally evicts oldest-idle sessions — with summaries,
	// counted in ShedEvictions — until the gauge is back under budget.
	// Unlike the MaxSessions cap, the admission check is soft: sessions
	// grow after they are admitted, so the gauge can pass the budget
	// between sweeps, and the sweep is what enforces it. 0 means
	// unbounded.
	MemBudget int64
	// AlarmSendTimeout bounds how long a shard blocks delivering one
	// alarm to a streaming sink; past it the alarm is dropped and
	// counted in AlarmsShed, so one stalled consumer degrades to lost
	// alarms instead of wedging the shard (and, through the bounded
	// queues, every producer behind it). 0 keeps the default blocking
	// semantics; Replay, which must return every alarm, refuses to run
	// on an engine with a timeout.
	AlarmSendTimeout time.Duration
	// ScoreBatch caps how many session streams one shard advances in a
	// single fused scorer.AdvanceBatch call when it flushes a staged wave
	// of events. Each shard drains a burst of its queue, stages every
	// event (session lookup, routing vote, prefix replay) and groups
	// the staged events by their sessions' concrete sequence model, then
	// drives each group through AdvanceBatch in chunks of this size —
	// one recurrent GEMM and one output GEMM per chunk on the LSTM
	// backend instead of one matrix-vector product per event. 0 defaults
	// to 64; 1 is the serial reference path (every stream advances alone,
	// exactly like per-event scoring). The fused LSTM kernels are
	// bit-identical to the serial ones, so Replay is byte-stable at any
	// setting.
	ScoreBatch int
	// Monitor is the per-session alarm configuration.
	Monitor MonitorConfig
	// OnSessionEnd, when non-nil, receives a SessionSummary every time a
	// session leaves the engine (idle eviction, Flush, or Close). It is
	// invoked on the owning shard's goroutine, so it must be fast and
	// safe to call from multiple goroutines concurrently, and it must not
	// call Drain or Flush, which wait on the shards; the adaptation
	// pipeline hangs off this hook.
	OnSessionEnd func(SessionSummary)
	// RecordSessions keeps each live session's submitted action tokens
	// (up to maxRecordedActions) so the SessionSummary can carry the
	// replayable session — the raw material of drift-triggered
	// retraining. Tokens, not names: the summary's interner snapshot
	// decodes them, so recording costs 4 bytes per action and retraining
	// never re-interns strings. Off by default: pure serving should not
	// pay the per-session memory.
	RecordSessions bool
	// Logf receives operational log lines (scoring errors); nil silences.
	Logf func(format string, args ...any)
}

// SessionSummary describes one finished session as the engine saw it:
// identity, routing, the generation that scored it, and the likelihood
// statistics drift detection feeds on. When EngineConfig.RecordSessions
// is set it also carries the submitted action tokens plus the interner
// snapshot that decodes them.
type SessionSummary struct {
	SessionID string
	// User and Start come from the session's first event.
	User  string
	Start time.Time
	// Cluster is the final routed behavior cluster.
	Cluster int
	// ModelVersion is the registry generation the session was pinned to.
	ModelVersion uint64
	// Canary marks a session pinned to the pending canary candidate by
	// Registry.Assign rather than to the serving generation; the rollout
	// comparator splits its per-arm samples on this flag.
	Canary bool
	// Observed counts the actions the session's monitor scored; Unknown
	// counts submitted actions outside the session's model vocabulary —
	// the raw signal of vocabulary drift. Unknown actions still carry
	// real tokens (the interner learns them), so retraining can absorb
	// them.
	Observed int
	Unknown  int
	// Alarms is the number of alarms the session raised.
	Alarms int
	// MinSmoothed is the minimum post-warmup smoothed likelihood (-1 if
	// the session never scored past the warmup) — the calibrated
	// quantity, so drift statistics and alarm floors share one scale.
	MinSmoothed float64
	// LastSmoothed is the final EWMA value (-1 if nothing scored).
	LastSmoothed float64
	// Tokens holds the submitted action tokens when recording was
	// enabled (truncated at maxRecordedActions), nil otherwise; Snap is
	// the interner snapshot that resolves them (taken at session end, so
	// it covers every recorded token).
	Tokens []int32
	Snap   *actionlog.InternSnapshot
}

// Session rebuilds the replayable session from a recorded summary, or
// nil when the engine was not recording actions. Token decoding is an
// array index per action, not a string lookup.
func (s *SessionSummary) Session() *actionlog.Session {
	if len(s.Tokens) == 0 || s.Snap == nil {
		return nil
	}
	actions := make([]string, 0, len(s.Tokens))
	for _, t := range s.Tokens {
		if name, ok := s.Snap.Name(t); ok {
			actions = append(actions, name)
		}
	}
	if len(actions) == 0 {
		return nil
	}
	return &actionlog.Session{
		ID:      s.SessionID,
		User:    s.User,
		Start:   s.Start,
		Actions: actions,
		Cluster: s.Cluster,
	}
}

// maxRecordedActions bounds the recorded tokens per session when
// EngineConfig.RecordSessions is set. Sessions running past the cap keep
// scoring but stop recording.
const maxRecordedActions = 512

func (c *EngineConfig) setDefaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.ScoreBatch == 0 {
		c.ScoreBatch = 64
	}
}

func (c *EngineConfig) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("core: engine Shards must be >= 1, got %d", c.Shards)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("core: engine QueueDepth must be >= 1, got %d", c.QueueDepth)
	}
	if c.IdleExpiry < 0 {
		return fmt.Errorf("core: engine IdleExpiry must be >= 0, got %v", c.IdleExpiry)
	}
	if c.CompactAfter < 0 {
		return fmt.Errorf("core: engine CompactAfter must be >= 0, got %v", c.CompactAfter)
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("core: engine MaxSessions must be >= 0, got %d", c.MaxSessions)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("core: engine MemBudget must be >= 0, got %d", c.MemBudget)
	}
	if c.AlarmSendTimeout < 0 {
		return fmt.Errorf("core: engine AlarmSendTimeout must be >= 0, got %v", c.AlarmSendTimeout)
	}
	if c.ScoreBatch < 1 {
		return fmt.Errorf("core: engine ScoreBatch must be >= 1, got %d", c.ScoreBatch)
	}
	return c.Monitor.validate()
}

// sweepInterval derives the shard maintenance-tick period: half the
// tightest quiet-period setting (so a session is swept at most 1.5x its
// deadline late), a slow fallback when only a memory budget is set, and
// 0 — no ticker at all — when no background maintenance is configured.
func (c *EngineConfig) sweepInterval() time.Duration {
	var iv time.Duration
	for _, d := range [...]time.Duration{c.IdleExpiry, c.CompactAfter} {
		if d > 0 && (iv == 0 || d < iv) {
			iv = d
		}
	}
	if iv > 0 {
		return iv / 2
	}
	if c.MemBudget > 0 {
		return 5 * time.Second
	}
	return 0
}

// EngineStats is a point-in-time snapshot of the engine counters.
type EngineStats struct {
	Shards          int    `json:"shards"`
	Backend         string `json:"backend"`
	ModelVersion    uint64 `json:"model_version"`
	Reloads         uint64 `json:"reloads"`
	EventsSubmitted uint64 `json:"events_submitted"`
	EventsProcessed uint64 `json:"events_processed"`
	EventsInFlight  uint64 `json:"events_in_flight"`
	// BatchesSubmitted counts every batch of events a shard took, queued
	// or inline (every event enters a shard inside a batch, so a
	// one-event line counts one): EventsSubmitted over it is the realized
	// amortization factor. BatchesInline counts the ones a submitter
	// scored on its own goroutine because their shard was idle, skipping
	// the queue and the shard goroutine's wake-up (see SubmitTokens).
	BatchesSubmitted uint64 `json:"batches_submitted"`
	BatchesInline    uint64 `json:"batches_inline"`
	// InternedActions is the size of the edge interner's pool, which
	// every installed generation's vocabulary joins; LearnedActions is
	// how many of those were learned from live traffic (the
	// vocabulary-drift surface, and what the learning budget limits).
	InternedActions int    `json:"interned_actions"`
	LearnedActions  int    `json:"learned_actions"`
	SessionsLive    uint64 `json:"sessions_live"`
	// SessionsCompacted is how many of the resident sessions are
	// currently dormant snapshots rather than live monitors;
	// Compactions and Rehydrations are the cumulative transition counts
	// (a session may cycle through both many times).
	SessionsCompacted uint64 `json:"sessions_compacted"`
	Compactions       uint64 `json:"compactions"`
	Rehydrations      uint64 `json:"rehydrations"`
	// MemBytes is the engine's accounted session memory: the sum of
	// every resident session's estimated footprint (monitor, streams,
	// recorded tokens), the same whether the session is live or
	// compacted. MemBudget and MaxSessions echo the configured limits
	// when set.
	MemBytes     int64  `json:"mem_bytes"`
	MemBudget    int64  `json:"mem_budget,omitempty"`
	MaxSessions  int    `json:"max_sessions,omitempty"`
	AlarmsRaised uint64 `json:"alarms_raised"`
	Evictions    uint64 `json:"evictions"`
	ScoreErrors  uint64 `json:"score_errors"`
	// UnknownEvents counts the events whose action is outside their
	// session's model vocabulary, a part of ScoreErrors. The log names
	// each such action only once per model version.
	UnknownEvents uint64 `json:"unknown_events"`
	// Shed counters, the observable face of the load-shedding policy:
	// ShedSessions counts refused session admissions (new sessions
	// arriving at the MaxSessions cap or over the memory budget),
	// ShedEvents the events dropped by those refusals, ShedEvictions
	// the oldest-idle sessions evicted to get back under MemBudget, and
	// AlarmsShed the alarms dropped after AlarmSendTimeout on a stalled
	// sink. All zero on a healthy, in-budget engine.
	ShedSessions  uint64 `json:"shed_sessions"`
	ShedEvents    uint64 `json:"shed_events"`
	ShedEvictions uint64 `json:"shed_evictions"`
	AlarmsShed    uint64 `json:"alarms_shed"`
	// Canary arm, present while a staged rollout is pending:
	// CanaryVersion/CanaryFraction describe the candidate generation and
	// its traffic slice; CanarySessions/CanaryAlarms count sessions ever
	// pinned to a canary arm and the alarms they raised (cumulative, so
	// the per-arm rates in a rollout verdict remain auditable after
	// promotion or rollback).
	CanaryVersion  uint64  `json:"canary_version,omitempty"`
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	CanarySessions uint64  `json:"canary_sessions,omitempty"`
	CanaryAlarms   uint64  `json:"canary_alarms,omitempty"`
}

// BatchEvent is one pre-tokenized event: the wire edge interns the action
// name during parse and hands the engine the resulting token, so the
// string→ID lookup happens exactly once per event. Tok must come from
// this engine's Interner (or be TokenUnknown).
type BatchEvent struct {
	Ev  actionlog.Event
	Tok int32
}

// tokEvent is the engine-internal event record: interned token plus the
// identity fields alarms and summaries need. action is kept only when
// the interner could not issue a token (learn budget exhausted), so the
// unknown-action log line can still name it.
type tokEvent struct {
	seq       uint64
	time      time.Time
	sessionID string
	user      string
	action    string
	tok       int32
}

// eventBatch is one pooled unit of batched shard work: all events were
// submitted in one SubmitTokens call and hash to the same shard, so the
// shard pays a single channel receive for all of them; sink is the
// alarm sink they were submitted with.
type eventBatch struct {
	evs  []tokEvent
	sink chan<- Alarm
}

// batchPool recycles eventBatch structs (and their event slices) between
// producers and shard workers, keeping the batched hot path free of
// per-batch heap churn.
var batchPool = sync.Pool{
	New: func() any { return &eventBatch{evs: make([]tokEvent, 0, 64)} },
}

func newEventBatch(sink chan<- Alarm) *eventBatch {
	b := batchPool.Get().(*eventBatch)
	b.sink = sink
	return b
}

func releaseBatch(b *eventBatch) {
	b.evs = b.evs[:0]
	b.sink = nil
	batchPool.Put(b)
}

// shardMsg is one unit of shard work: exactly one of batch (events to
// stage) and ctl (a control func run by the shard goroutine under the
// shard's lock, see Engine.broadcast) is set.
type shardMsg struct {
	batch *eventBatch
	ctl   func(*engineShard)
}

// engineSession is one live session owned by exactly one shard, and
// touched only under that shard's lock.
// mv is the registry generation that was current when the session
// started: its detector scores the session, its token table translates
// the session's events and its version stamps the alarms. A model reload
// never touches existing sessions.
type engineSession struct {
	// Exactly one of mon and snap is non-nil: mon while the session is
	// live, snap while it is compacted to its dormant snapshot.
	mon  *SessionMonitor
	snap *SessionSnapshot
	mv   *ModelVersion
	// id duplicates the session-map key so the intrusive lists below can
	// evict without a reverse lookup.
	id string
	// prev/next link the session into its shard's lastSeen-ordered
	// intrusive list (live or cold, depending on snap), so maintenance
	// sweeps touch only the sessions they act on instead of scanning
	// the whole shard map.
	prev, next *engineSession
	// mem is the session's last accounted footprint in bytes, mirrored
	// into the shard gauge; resize keeps the two in step.
	mem int64
	// canary marks a session Assign pinned to the pending candidate
	// generation; its alarms feed the per-arm counters and its summary
	// carries the flag for the rollout comparator.
	canary   bool
	lastSeen time.Time
	user     string
	start    time.Time
	alarms   int
	unknown  int
	tokens   []int32
	// waveMark is the shard wave counter value of the wave this session
	// last staged an event into: a second event of the same session in
	// one wave forces a flush first, so a session never has two
	// observations in flight (session order is the one ordering the
	// engine guarantees).
	waveMark uint64
}

// sessList is an intrusive doubly-linked session list ordered by
// lastSeen (head = oldest, tail = most recently seen). Each shard keeps
// two — live monitors and cold snapshots — so idle eviction, compaction,
// and budget shedding all pop from a head in O(1) per session acted on,
// instead of the O(sessions) full-map scan the seed engine paid per
// tick. A list is touched only under its shard's lock.
type sessList struct {
	head, tail *engineSession
}

// pushTail appends a session (which must not be on any list).
func (l *sessList) pushTail(sess *engineSession) {
	sess.prev = l.tail
	sess.next = nil
	if l.tail != nil {
		l.tail.next = sess
	} else {
		l.head = sess
	}
	l.tail = sess
}

// remove unlinks a session from the list.
func (l *sessList) remove(sess *engineSession) {
	if sess.prev != nil {
		sess.prev.next = sess.next
	} else {
		l.head = sess.next
	}
	if sess.next != nil {
		sess.next.prev = sess.prev
	} else {
		l.tail = sess.prev
	}
	sess.prev, sess.next = nil, nil
}

// moveTail re-appends a just-touched session, keeping the list ordered
// by lastSeen.
func (l *sessList) moveTail(sess *engineSession) {
	if l.tail == sess {
		return
	}
	l.remove(sess)
	l.pushTail(sess)
}

// stagedEvent is one event of a shard's current wave: staged (session
// resolved, routing voted, leader's stream built) but with its stream
// advance deferred to the wave flush, where advances are fused per
// sequence model across sessions. sink is the alarm sink the event was submitted
// with: its alarms go there and nowhere else.
type stagedEvent struct {
	ev   tokEvent
	sink chan<- Alarm
	sess *engineSession
	sc   scorer.Scorer
	st   scorer.Stream
	// idx is the event's index in the session's pinned model vocabulary.
	idx int32
	lik float64
	// errd marks a staged event whose fused advance failed; its
	// FinishToken is skipped (the score error was already counted).
	errd bool
}

// waveGroup collects the wave positions of all staged events that share
// one concrete sequence model, in staged (FIFO) order.
type waveGroup struct {
	sc   scorer.Scorer
	idxs []int
}

// engineShard owns a partition of the session space. Its state is
// touched only under its lock mu, which one goroutine at a time holds for
// a whole unit of work: the shard goroutine across each queue burst
// (steps, then the wave flush) and each sweep, or a submitter scoring a
// one-shard submission inline while the shard is idle (runInline). There
// is still one writer per shard at any instant, and the scoring itself
// takes no other lock. mu is the shard's ownership, so it is held across
// blocking alarm sends and the OnSessionEnd hook: submitters only
// TryLock it, and the one goroutine that waits for it is the shard
// goroutine, which would otherwise have been the one blocked.
type engineShard struct {
	e  *Engine
	in chan shardMsg
	mu sync.Mutex
	// pending counts the messages sent (or being sent) to in that are
	// not finished yet, event batches and broadcast control funcs alike.
	// The shard goroutine subtracts a burst's messages before it unlocks,
	// so pending == 0 under the lock means every earlier event of every
	// session on the shard is scored and no broadcast is waiting.
	pending  atomic.Int64
	sessions map[string]*engineSession
	// live and cold order the shard's sessions by lastSeen: live holds
	// the sessions being scored, cold the compacted ones.
	// Maintenance sweeps pop from the heads (oldest first), so their
	// cost scales with the work done, not the session count.
	live, cold sessList
	// mem is the shard's accounted session memory in bytes. Written
	// only under the shard's lock, read by Stats and admission checks
	// from other goroutines — hence atomic.
	mem atomic.Int64
	// Wave state (guarded by mu): waveID counts flushed waves
	// (starting at 1 so a zero-valued session waveMark never matches),
	// wave holds the staged events of the current wave, groups and the
	// streams/actions/liks triple are flush-time scratch reused across
	// waves.
	waveID  uint64
	wave    []stagedEvent
	groups  []waveGroup
	streams []scorer.Stream
	actions []int
	liks    []float64
}

// Engine is the sharded concurrent scoring path: N shards, each with its
// own goroutine, session map, and idle-eviction clock, fed through bounded
// channels. It is the concurrent superstructure over SessionMonitor that
// the single-goroutine-per-connection seed server lacked.
//
// The event path is token-based end to end: the caller interns each
// action name exactly once at the edge (through Interner) and hands
// SubmitTokens the tokens, shard queues and session records carry int32
// tokens, and each session translates them into its pinned generation's
// vocabulary through the table the registry built at install — after the
// edge, an event is one interned int moving through a batched queue.
// SubmitTokens is the only way in: every event enters its shard inside
// a batch, and everything else a shard does on request arrives as a
// control func on the same queue. An event's alarms go out one way, to
// the sink it was submitted with.
//
// Ordering guarantees: events of one session are scored in submission
// order (one session maps to one shard, a shard consumes its queue FIFO,
// a submission runs inline only when nothing queued for its shard is
// unfinished, and a batch preserves its internal order). Across sessions
// the sinks see no order; Replay restores global submission order by
// sorting what its sink collected on Alarm.Seq.
type Engine struct {
	reg    *Registry
	cfg    EngineConfig
	shards []*engineShard
	wg     sync.WaitGroup

	// mu guards closed against send/Close races: submitters and
	// broadcast hold the read lock across their channel sends, Close
	// flips closed under the write lock, so no send can land on a closed
	// channel.
	mu     sync.RWMutex
	closed bool

	seq           atomic.Uint64
	submitted     atomic.Uint64
	processed     atomic.Uint64
	batches       atomic.Uint64
	batchesInline atomic.Uint64
	sessions      atomic.Int64
	compacted     atomic.Int64
	compactions   atomic.Uint64
	rehydrations  atomic.Uint64
	alarms        atomic.Uint64
	evictions     atomic.Uint64
	scoreErrors   atomic.Uint64
	unknownEvents atomic.Uint64
	shedSessions  atomic.Uint64
	shedEvents    atomic.Uint64
	shedEvictions atomic.Uint64
	alarmsShed    atomic.Uint64
	canaryStarted atomic.Uint64
	canaryAlarmed atomic.Uint64
}

// NewEngine starts the shard goroutines over a trained detector,
// wrapped in a fresh single-generation registry (version 1).
func NewEngine(det *Detector, cfg EngineConfig) (*Engine, error) {
	reg, err := NewRegistry(det)
	if err != nil {
		return nil, err
	}
	return NewEngineRegistry(reg, cfg)
}

// NewEngineRegistry starts the shard goroutines over a model registry:
// every new session pins the registry generation current at its first
// event, so Registry.Swap rolls new models out to new sessions only —
// zero downtime, no mid-session weight mixing.
func NewEngineRegistry(reg *Registry, cfg EngineConfig) (*Engine, error) {
	if reg == nil {
		return nil, fmt.Errorf("core: engine: nil registry")
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{reg: reg, cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		sh := &engineShard{
			e:        e,
			in:       make(chan shardMsg, cfg.QueueDepth),
			sessions: make(map[string]*engineSession),
			waveID:   1,
		}
		e.shards = append(e.shards, sh)
		e.wg.Add(1)
		go sh.run()
	}
	return e, nil
}

// Registry returns the engine's model registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Interner returns the registry's interner, the engine's one token
// space. The wire layer interns action names during parse with it and
// submits the resulting tokens via SubmitTokens; its snapshots also
// decode recorded session summaries.
func (e *Engine) Interner() *actionlog.Interner { return e.reg.interner }

// memBytes returns the engine's accounted session memory: the summed
// per-shard gauges of every resident session's estimated footprint.
func (e *Engine) memBytes() int64 {
	var total int64
	for _, sh := range e.shards {
		total += sh.mem.Load()
	}
	return total
}

// admit reserves a resident-session slot for a NEW session, or reports
// that the engine must refuse it: it is at its session cap or over its
// memory budget. The cap is a hard reservation (a compare-and-swap on
// the session count, so shards racing for the last slot cannot both win);
// the caller releases the slot if the session is not created after all.
// Existing sessions keep scoring — the shed policy refuses new work
// first and only then (via the sweep) evicts oldest-idle sessions.
func (e *Engine) admit() bool {
	if e.cfg.MemBudget > 0 && e.memBytes() >= e.cfg.MemBudget {
		return false
	}
	if e.cfg.MaxSessions <= 0 {
		e.sessions.Add(1)
		return true
	}
	for {
		n := e.sessions.Load()
		if n >= int64(e.cfg.MaxSessions) {
			return false
		}
		if e.sessions.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// shardIndex hashes a session ID onto its owning shard: inline FNV-1a so
// the hot submit path allocates nothing.
func (e *Engine) shardIndex(sessionID string) int {
	h := uint32(2166136261)
	for i := 0; i < len(sessionID); i++ {
		h ^= uint32(sessionID[i])
		h *= 16777619
	}
	return int(h) % len(e.shards)
}

// SubmitTokens submits a batch of pre-tokenized events: the caller
// interned each action at the edge (via Interner), so the engine never
// touches the action strings again. Sequence numbers are assigned in
// input order, events are grouped by owning shard into pooled batches,
// and each shard pays a single channel receive for its whole group.
// Per-session submission order is preserved. A full shard queue blocks
// (bounded-channel backpressure) until the queue drains, the context is
// canceled, or the engine is closed; on context cancellation a prefix of
// the batch may already have been submitted — the error reports how many
// events were not. Alarms raised by the events are sent to sink (a nil
// sink counts alarms without delivering them), so each connection
// receives the alarms of the events it submitted.
//
// A submission whose events all hash to one shard skips the queue when
// that shard is idle: nothing queued for it is unfinished, the caller
// wins its lock, and the sink is nil or has room for every alarm the
// submission can raise. SubmitTokens then scores the events on the
// calling goroutine and returns once they are scored, saving the shard
// goroutine's wake-up (BatchesInline counts these). Otherwise the
// submission is enqueued. Either way the shard has one writer at a time,
// and the ordering guarantees are unchanged.
//
// Sink contract: alarm sends block, so the caller must keep draining a
// non-nil sink until a Drain called after its last submission has
// returned nil — abandoning it earlier can stall the session's shard
// and everything queued behind it. An inline run
// checks the sink's room up front but shares the sink with the shard
// goroutines: if they fill it in between, the caller waits for the sink's
// reader exactly as the shard goroutine would have.
func (e *Engine) SubmitTokens(ctx context.Context, evs []BatchEvent, sink chan<- Alarm) error {
	for i := range evs {
		if evs[i].Ev.SessionID == "" || (evs[i].Tok < 0 && evs[i].Ev.Action == "") {
			return fmt.Errorf("core: engine: batch event %d missing session_id or action", i)
		}
	}
	if len(evs) == 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return fmt.Errorf("core: engine: closed")
	}
	si := e.shardIndex(evs[0].Ev.SessionID)
	for i := 1; i < len(evs); i++ {
		if e.shardIndex(evs[i].Ev.SessionID) != si {
			return e.submitSpread(ctx, evs, sink)
		}
	}
	// One shard: no per-shard grouping, so nothing to allocate.
	sh := e.shards[si]
	if sh.runInline(evs, sink) {
		return nil
	}
	b := newEventBatch(sink)
	for i := range evs {
		b.evs = append(b.evs, e.stamp(&evs[i]))
	}
	if err := sh.enqueue(ctx, b); err != nil {
		releaseBatch(b)
		return submitError(len(evs), len(evs), err)
	}
	return nil
}

// submitSpread is SubmitTokens for a submission spanning several shards:
// one pooled batch and one queue send per shard it touches.
func (e *Engine) submitSpread(ctx context.Context, evs []BatchEvent, sink chan<- Alarm) error {
	batches := make([]*eventBatch, len(e.shards))
	for i := range evs {
		si := e.shardIndex(evs[i].Ev.SessionID)
		if batches[si] == nil {
			batches[si] = newEventBatch(sink)
		}
		batches[si].evs = append(batches[si].evs, e.stamp(&evs[i]))
	}
	dropped := 0
	var cause error
	for si, b := range batches {
		if b == nil {
			continue
		}
		if cause == nil {
			if cause = e.shards[si].enqueue(ctx, b); cause == nil {
				continue
			}
		}
		dropped += len(b.evs)
		releaseBatch(b)
	}
	if cause != nil {
		return submitError(dropped, len(evs), cause)
	}
	return nil
}

func submitError(dropped, total int, cause error) error {
	return fmt.Errorf("core: engine: batch submit: %d of %d events not submitted: %w", dropped, total, cause)
}

// stamp turns one submitted event into the engine's record of it, with
// the next sequence number.
func (e *Engine) stamp(be *BatchEvent) tokEvent {
	te := tokEvent{seq: e.seq.Add(1), time: be.Ev.Time, sessionID: be.Ev.SessionID, user: be.Ev.User, tok: be.Tok}
	if be.Tok < 0 {
		// Only an event the interner could not tokenize keeps its action
		// name (see tokEvent).
		te.action = be.Ev.Action
	}
	return te
}

// enqueue sends one batch to the shard's queue, blocking while the queue
// is full. The batch counts as pending from before the send, so no inline
// run can overtake it. On cancellation the batch is not sent and stays
// the caller's.
func (s *engineShard) enqueue(ctx context.Context, b *eventBatch) error {
	// Snapshot the size before the send: the shard may process and
	// recycle the batch the instant it lands on the channel.
	size := uint64(len(b.evs))
	s.pending.Add(1)
	select {
	case s.in <- shardMsg{batch: b}:
		s.e.submitted.Add(size)
		s.e.batches.Add(1)
		return nil
	case <-ctx.Done():
		s.pending.Add(-1)
		return ctx.Err()
	}
}

// runInline scores a one-shard submission on the calling goroutine if the
// shard is idle, and reports whether it did. Idle means: no message sent
// to the shard is unfinished (so every earlier event of these sessions is
// scored and no broadcast is waiting), checked again after TryLock wins
// the shard; and the sink is nil or can take every alarm the events can
// raise, so the caller does not wait on a sink the shard goroutine would
// have waited on. The wave is flushed before the lock is released, as
// the shard goroutine does after every burst.
func (s *engineShard) runInline(evs []BatchEvent, sink chan<- Alarm) bool {
	if s.pending.Load() != 0 || (sink != nil && cap(sink)-len(sink) < maxAlarmsPerEvent*len(evs)) {
		return false
	}
	if !s.mu.TryLock() {
		return false
	}
	defer s.mu.Unlock()
	if s.pending.Load() != 0 {
		return false
	}
	s.e.submitted.Add(uint64(len(evs)))
	s.e.batches.Add(1)
	s.e.batchesInline.Add(1)
	now := time.Now()
	for i := range evs {
		te := s.e.stamp(&evs[i])
		s.stageEvent(&te, sink, now)
	}
	s.flushWave()
	return true
}

// broadcast enqueues fn behind everything already queued on every shard
// and blocks until every shard has run it; each shard flushes its staged
// wave first, so every event submitted before the broadcast is fully
// scored when fn runs. Once the engine is closing the shard queues may
// already be closed, so fn is not run: broadcast waits for the shards to
// finish draining instead — they end every session on the way out, and
// afterwards nothing can send to any sink.
func (e *Engine) broadcast(fn func(*engineShard)) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.wg.Wait()
		return
	}
	ack := make(chan struct{}, len(e.shards))
	ctl := func(s *engineShard) {
		fn(s)
		ack <- struct{}{}
	}
	for _, sh := range e.shards {
		// Pending from before the send: a queued broadcast keeps
		// submissions off the inline path, so it stays FIFO.
		sh.pending.Add(1)
		sh.in <- shardMsg{ctl: ctl}
	}
	e.mu.RUnlock()
	for range e.shards {
		<-ack
	}
}

// Flush ends every live session on every shard now — emitting a
// SessionSummary per session when the hook is set — after scoring every
// event submitted before it. Replay-style adaptation (and tests) use it
// where production serving relies on idle eviction.
func (e *Engine) Flush() { e.broadcast((*engineShard).evictAll) }

// Compact turns every session past its routing vote on every shard into
// its dormant snapshot now, without waiting for CompactAfter, after
// scoring every event submitted before it. Sessions still inside their
// routing vote stay live; the census tests use this to check that
// compaction leaves the accounted memory unchanged.
func (e *Engine) Compact() { e.broadcast((*engineShard).compactAll) }

// sweepNow runs one maintenance sweep on every shard as of now and
// returns the total number of sessions the sweeps examined — the
// amortization probe the eviction tests pin against.
func (e *Engine) sweepNow(now time.Time) int {
	var total atomic.Int64
	e.broadcast(func(s *engineShard) { total.Add(int64(s.sweep(now))) })
	return int(total.Load())
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	// Read processed before submitted: processed never exceeds submitted
	// at any instant, so this order keeps the in-flight difference from
	// underflowing when events land between the two loads.
	processed := e.processed.Load()
	submitted := e.submitted.Load()
	if submitted < processed {
		submitted = processed
	}
	live := e.sessions.Load()
	if live < 0 {
		live = 0
	}
	compacted := e.compacted.Load()
	if compacted < 0 {
		compacted = 0
	}
	mv := e.reg.Current()
	snap := e.reg.interner.Snapshot()
	st := EngineStats{
		Shards:       len(e.shards),
		Backend:      mv.Det.Backend(),
		ModelVersion: mv.Version,
		// Derived from the version, so every Registry swap counts.
		Reloads:           mv.Version - 1,
		EventsSubmitted:   submitted,
		EventsProcessed:   processed,
		EventsInFlight:    submitted - processed,
		BatchesSubmitted:  e.batches.Load(),
		BatchesInline:     e.batchesInline.Load(),
		InternedActions:   snap.Len(),
		LearnedActions:    snap.Learned(),
		SessionsLive:      uint64(live),
		SessionsCompacted: uint64(compacted),
		Compactions:       e.compactions.Load(),
		Rehydrations:      e.rehydrations.Load(),
		MemBytes:          e.memBytes(),
		MemBudget:         e.cfg.MemBudget,
		MaxSessions:       e.cfg.MaxSessions,
		AlarmsRaised:      e.alarms.Load(),
		Evictions:         e.evictions.Load(),
		ScoreErrors:       e.scoreErrors.Load(),
		UnknownEvents:     e.unknownEvents.Load(),
		ShedSessions:      e.shedSessions.Load(),
		ShedEvents:        e.shedEvents.Load(),
		ShedEvictions:     e.shedEvictions.Load(),
		AlarmsShed:        e.alarmsShed.Load(),
		CanarySessions:    e.canaryStarted.Load(),
		CanaryAlarms:      e.canaryAlarmed.Load(),
	}
	if cmv, frac := e.reg.Canary(); cmv != nil {
		st.CanaryVersion = cmv.Version
		st.CanaryFraction = frac
	}
	return st
}

// Drain is the engine's barrier: it returns once every event submitted
// before the call is scored and its alarms are in their sinks, or when
// ctx ends. It is a no-op broadcast behind everything queued, so events
// submitted after the call do not hold it up. An event's alarms go only
// to the sink it was submitted with, so once a Drain called after a
// sink's last submission returns nil, the engine never sends to that
// sink again and the caller may close it; a caller about to close a
// sink passes a context that cannot end. The caller must keep draining
// its sinks while it waits, and must not call Drain from OnSessionEnd,
// which runs on a shard goroutine.
func (e *Engine) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		e.broadcast(func(*engineShard) {})
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// replayChunk is the SubmitTokens batch size Replay slices its stream
// into.
const replayChunk = 256

// Replay pushes a whole event stream through the engine the way serving
// does — each action interned at the edge, SubmitTokens in replayChunk
// slices — and returns the alarms in submission order. A private sink
// collects them; Drain then guarantees every event is scored and its
// alarms are in the sink, which no later submission uses. The alarms of
// one event come from one shard in emission order, so a stable sort on
// Seq restores the serial order.
// An engine with AlarmSendTimeout could drop an alarm on the way, so
// Replay refuses to run on one.
func (e *Engine) Replay(ctx context.Context, events []actionlog.Event) ([]Alarm, error) {
	if e.cfg.AlarmSendTimeout > 0 {
		return nil, fmt.Errorf("core: engine: Replay needs lossless alarm delivery, but AlarmSendTimeout is %v", e.cfg.AlarmSendTimeout)
	}
	// One chunk of buffer lets a shard hand over a burst of alarms
	// without waiting on the collector.
	sink := make(chan Alarm, replayChunk)
	collected := make(chan []Alarm, 1)
	go func() {
		var out []Alarm
		for a := range sink {
			out = append(out, a)
		}
		collected <- out
	}()
	batch := make([]BatchEvent, 0, replayChunk)
	var err error
	for off := 0; off < len(events) && err == nil; off += replayChunk {
		batch = batch[:0]
		for _, ev := range events[off:min(off+replayChunk, len(events))] {
			batch = append(batch, BatchEvent{Ev: ev, Tok: e.reg.interner.Intern(ev.Action)})
		}
		err = e.SubmitTokens(ctx, batch, sink)
	}
	// Not ctx: once it is cancelled Drain returns at once, and closing
	// the sink would race a shard still sending to it.
	e.Drain(context.Background())
	close(sink)
	out := <-collected
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Close drains and stops the engine: new submissions fail immediately,
// queued events are scored, shard goroutines exit. Safe to call twice.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, sh := range e.shards {
		close(sh.in)
	}
	e.wg.Wait()
}

// drainBurst caps how many queued messages a shard consumes back-to-back
// before returning to the outer select, so sustained load cannot starve
// the idle-eviction ticker.
const drainBurst = 64

// run is the shard loop: stage queued events into waves (draining bursts
// of the queue per wakeup), flush each wave with fused batched scoring
// before going back to sleep, and run the maintenance sweep (idle
// eviction, compaction, budget shedding) on the ticker. It holds the
// shard's lock across each burst and each sweep, and marks a burst's
// messages finished before it lets go. The wave is
// ALWAYS flushed before the loop re-enters the outer select: a staged
// event is neither scored nor counted processed until its wave flushes,
// so leaving one parked would hold back its alarms until the next
// message — and it also means the sweep never sees a session with an
// observation in flight.
func (s *engineShard) run() {
	defer s.e.wg.Done()
	var ticker *time.Ticker
	var tick <-chan time.Time
	if iv := s.e.cfg.sweepInterval(); iv > 0 {
		ticker = time.NewTicker(iv)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case msg, ok := <-s.in:
			s.mu.Lock()
			// Opportunistic burst drain: after the blocking receive,
			// consume whatever else is already queued without going
			// back through the outer select.
			done := int64(0)
			for burst := 0; ; burst++ {
				if !ok {
					// Closing: finish staged work, then end every
					// remaining session so the adaptation hook sees
					// the complete picture.
					s.flushWave()
					s.evictAll()
					s.mu.Unlock()
					return
				}
				s.step(msg)
				done++
				if burst >= drainBurst {
					break
				}
				select {
				case msg, ok = <-s.in:
					continue
				default:
				}
				break
			}
			s.flushWave()
			s.pending.Add(-done)
			s.mu.Unlock()
		case now := <-tick:
			s.mu.Lock()
			s.sweep(now)
			s.mu.Unlock()
		}
	}
}

// step handles one queue message. A control func runs only after the
// staged wave is flushed, so the FIFO contract of broadcast (everything
// submitted before it is fully scored) holds with staging in play. An
// event batch is released as soon as its events are staged — staging
// copies each tokEvent by value.
func (s *engineShard) step(msg shardMsg) {
	if msg.ctl != nil {
		s.flushWave()
		msg.ctl(s)
		return
	}
	now := time.Now()
	for i := range msg.batch.evs {
		s.stageEvent(&msg.batch.evs[i], msg.batch.sink, now)
	}
	releaseBatch(msg.batch)
}

// maxWave bounds how many staged events a shard parks before flushing
// mid-burst, so a burst of large submitted batches cannot grow the wave
// without bound.
const maxWave = 1024

// stageEvent resolves one tokenized event — session lookup or creation,
// vocabulary index, routing vote, prefix replay — and parks it on the
// shard's current wave for the fused stream advance at flush time. Runs
// under the shard's lock: the session map and the monitors are
// shard-local. Events that finish at stage time
// (unknown action, scoring error) are counted processed immediately;
// staged events are counted when the wave flushes.
func (s *engineShard) stageEvent(ev *tokEvent, sink chan<- Alarm, now time.Time) {
	sess, ok := s.sessions[ev.sessionID]
	if ok && sess.waveMark == s.waveID {
		// Second event of one session in the same wave: the engine's
		// ordering guarantee is per-session submission order, so the
		// pending observation must complete before this one stages.
		s.flushWave()
	}
	grew := false
	if !ok {
		if !s.e.admit() {
			// Load shedding, stage one: at the session cap or over the
			// memory budget, events of sessions the engine does not
			// already know are refused — dropped and counted, never
			// queued — so resident sessions keep scoring at full speed.
			// The event still counts processed: a shed event is finished
			// work, so EventsInFlight returns to 0.
			s.e.shedSessions.Add(1)
			s.e.shedEvents.Add(1)
			s.e.processed.Add(1)
			return
		}
		// Pin the session to the registry generation current at its
		// first event: the monitor holds that generation's detector, so
		// a concurrent Registry.Swap never changes the weights
		// mid-session. The generation also pins the monitor
		// configuration when it carries a calibrated one: recalibrated
		// floors roll out with the weights they were calibrated for.
		// With a canary pending, Assign deterministically routes the
		// canary fraction of new sessions to the candidate generation
		// instead.
		mv, canary := s.e.reg.Assign(ev.sessionID)
		mcfg := s.e.cfg.Monitor
		if mv.Monitor != nil {
			mcfg = *mv.Monitor
		}
		mon, err := mv.Det.NewSessionMonitor(mcfg)
		if err != nil {
			// Config was validated at NewEngine; failing here means the
			// detector itself is unusable.
			s.e.sessions.Add(-1)
			s.e.scoreErrors.Add(1)
			s.e.logf("session %s: %v", ev.sessionID, err)
			return
		}
		sess = &engineSession{
			mon:    mon,
			mv:     mv,
			id:     ev.sessionID,
			canary: canary,
			user:   ev.user,
			start:  ev.time,
		}
		s.sessions[ev.sessionID] = sess
		s.live.pushTail(sess)
		grew = true
		if canary {
			s.e.canaryStarted.Add(1)
		}
	} else if sess.snap != nil {
		// Transparent rehydration: the session was compacted while
		// idle. Its snapshot is its frozen monitor, so waking it moves a
		// pointer and leaves its accounted size as it was.
		sess.mon, _ = sess.snap.Rehydrate() // never fails
		sess.snap = nil
		s.cold.remove(sess)
		s.live.pushTail(sess)
		s.e.compacted.Add(-1)
		s.e.rehydrations.Add(1)
	} else {
		s.live.moveTail(sess)
	}
	sess.lastSeen = now
	tokCap := cap(sess.tokens)
	if s.e.cfg.RecordSessions && ev.tok >= 0 && len(sess.tokens) < maxRecordedActions {
		sess.tokens = append(sess.tokens, ev.tok)
	}
	// Re-account the session while its footprint can still change: on
	// creation, while the routing vote may build a new leader's stream
	// (and on the action whose freeze releases the vote state), and when
	// the recorded-token buffer reallocates. Past the vote freeze a session's
	// size is constant, compacted or not, so the steady-state hot path
	// skips the walk.
	grew = grew || cap(sess.tokens) != tokCap || sess.mon.voting()
	idx := sess.mv.index(ev.tok)
	if idx < 0 {
		// The action is outside this session's model vocabulary (every
		// vocabulary name was interned when the generation was
		// installed): count it on the session so the summary exposes the
		// unknown-action rate vocabulary-drift detection watches. Unless
		// the learn budget is spent, the interner holds the name (as a
		// learned token), so retraining can absorb it later. The log
		// names each unknown action once per generation (names past the
		// learning budget share one line); the counter takes every
		// event.
		sess.unknown++
		s.e.unknownEvents.Add(1)
		s.e.scoreErrors.Add(1)
		s.e.processed.Add(1)
		if s.e.cfg.Logf != nil && sess.mv.firstUnknown(ev.tok) {
			name := ev.action
			if ev.tok >= 0 {
				name, _ = s.e.reg.interner.Snapshot().Name(ev.tok)
			}
			s.e.logf("session %s: unknown action %q (token %d, model version %d); logged once per version, counted in unknown_events",
				ev.sessionID, name, ev.tok, sess.mv.Version)
		}
		if grew {
			s.resize(sess)
		}
		return
	}
	sc, st, err := sess.mon.StageToken(int(idx))
	if err != nil {
		s.e.scoreErrors.Add(1)
		s.e.processed.Add(1)
		s.e.logf("session %s: %v", ev.sessionID, err)
		if grew {
			s.resize(sess)
		}
		return
	}
	if grew {
		// After StageToken: the vote may just have built a new
		// leader's stream, or frozen and released its state.
		s.resize(sess)
	}
	sess.waveMark = s.waveID
	s.wave = append(s.wave, stagedEvent{ev: *ev, sink: sink, sess: sess, sc: sc, st: st, idx: idx})
	if len(s.wave) >= maxWave {
		s.flushWave()
	}
}

// flushWave completes every staged event of the current wave: the parked
// stream advances run grouped by concrete sequence model (first-seen
// order) through scorer.AdvanceBatch in ScoreBatch-sized chunks — one
// fused batched step per chunk on backends that implement the fused
// path, the serial per-stream loop on the rest — then each event's
// FinishToken and alarm emission runs in staged (per-shard FIFO) order.
// Each session appears at most once per wave and the fused LSTM kernels
// are bit-identical to the serial ones, so the observable outcome is
// exactly that of per-event scoring.
func (s *engineShard) flushWave() {
	if len(s.wave) == 0 {
		return
	}
	for i := range s.wave {
		gi := -1
		for g := range s.groups {
			if s.groups[g].sc == s.wave[i].sc {
				gi = g
				break
			}
		}
		if gi < 0 {
			if len(s.groups) < cap(s.groups) {
				s.groups = s.groups[:len(s.groups)+1]
				s.groups[len(s.groups)-1].sc = s.wave[i].sc
			} else {
				s.groups = append(s.groups, waveGroup{sc: s.wave[i].sc})
			}
			gi = len(s.groups) - 1
		}
		s.groups[gi].idxs = append(s.groups[gi].idxs, i)
	}
	chunk := s.e.cfg.ScoreBatch
	for g := range s.groups {
		grp := &s.groups[g]
		for off := 0; off < len(grp.idxs); off += chunk {
			end := off + chunk
			if end > len(grp.idxs) {
				end = len(grp.idxs)
			}
			s.streams, s.actions, s.liks = s.streams[:0], s.actions[:0], s.liks[:0]
			for _, wi := range grp.idxs[off:end] {
				s.streams = append(s.streams, s.wave[wi].st)
				s.actions = append(s.actions, int(s.wave[wi].idx))
				s.liks = append(s.liks, 0)
			}
			if err := scorer.AdvanceBatch(grp.sc, s.streams, s.actions, s.liks); err != nil {
				for _, wi := range grp.idxs[off:end] {
					s.wave[wi].errd = true
					s.e.scoreErrors.Add(1)
					s.e.logf("session %s: %v", s.wave[wi].ev.sessionID, err)
				}
				continue
			}
			for k, wi := range grp.idxs[off:end] {
				s.wave[wi].lik = s.liks[k]
			}
		}
		grp.sc = nil
		grp.idxs = grp.idxs[:0]
	}
	s.groups = s.groups[:0]
	for i := range s.wave {
		w := &s.wave[i]
		if !w.errd {
			s.emitStep(w, w.sess.mon.FinishToken(int(w.idx), w.lik))
		}
		// Zero the entry so the recycled wave array does not retain
		// session, stream, or string references past the flush.
		*w = stagedEvent{}
	}
	s.e.processed.Add(uint64(len(s.wave)))
	for i := range s.streams {
		s.streams[i] = nil
	}
	s.wave = s.wave[:0]
	s.waveID++
}

// emitStep routes one finished step's alarms (and alarm counters).
func (s *engineShard) emitStep(w *stagedEvent, step MonitorStep) {
	sess, ev := w.sess, &w.ev
	sess.alarms += len(step.Alarms)
	if sess.canary && len(step.Alarms) > 0 {
		s.e.canaryAlarmed.Add(uint64(len(step.Alarms)))
	}
	for _, kind := range step.Alarms {
		a := Alarm{
			Seq:          ev.seq,
			Time:         ev.time,
			SessionID:    ev.sessionID,
			User:         ev.user,
			Kind:         kind.String(),
			Position:     step.Position,
			Cluster:      step.Cluster,
			ModelVersion: sess.mv.Version,
			Likelihood:   step.Smoothed,
		}
		s.e.alarms.Add(1)
		if w.sink != nil {
			s.sendAlarm(w.sink, a)
		}
	}
}

// sendAlarm delivers one alarm to a streaming sink. Default semantics
// are a blocking send: a slow alarm consumer backpressures the shard
// (and through the bounded queue, the producers) rather than dropping
// alarms. With AlarmSendTimeout set, a sink that stays full past the
// timeout costs the alarm instead of the shard: the alarm is dropped
// and counted in AlarmsShed, so one stalled consumer can no longer
// wedge every session sharing the shard.
func (s *engineShard) sendAlarm(sink chan<- Alarm, a Alarm) {
	t := s.e.cfg.AlarmSendTimeout
	if t <= 0 {
		sink <- a
		return
	}
	select {
	case sink <- a:
		return
	default:
	}
	timer := time.NewTimer(t)
	defer timer.Stop()
	select {
	case sink <- a:
	case <-timer.C:
		s.e.alarmsShed.Add(1)
	}
}

// sessionOverhead approximates the fixed per-session accounting cost:
// the engineSession struct plus its shard-map entry.
const sessionOverhead = 192

// resize re-estimates one live session's memory footprint and folds the
// delta into the shard gauge. Runs under the shard's lock (the gauge
// itself is atomic so Stats and admission checks can read it).
func (s *engineShard) resize(sess *engineSession) {
	n := int64(sessionOverhead + len(sess.id) + cap(sess.tokens)*4 + sess.mon.MemSize())
	if d := n - sess.mem; d != 0 {
		sess.mem = n
		s.mem.Add(d)
	}
}

// sweepCompactBudget caps how many live sessions one maintenance sweep
// examines for compaction, so a tick over a huge quiet shard stays
// bounded (the remainder is picked up by the next tick).
const sweepCompactBudget = 1024

// sweep is the shard's maintenance pass, replacing the seed engine's
// full-map eviction scan. Every phase pops from the head of a
// lastSeen-ordered list and stops at the first session inside its
// deadline, so the cost is O(sessions acted on), not O(sessions
// resident) — the returned examined count (which the amortization test
// pins) is the number of sessions the sweep actually looked at. Order
// of phases is the documented shed policy: expire idle sessions, then
// compact quiet live ones, then — only if still over MemBudget — evict
// oldest-idle sessions with summaries.
func (s *engineShard) sweep(now time.Time) (examined int) {
	if exp := s.e.cfg.IdleExpiry; exp > 0 {
		cutoff := now.Add(-exp)
		for _, list := range [...]*sessList{&s.cold, &s.live} {
			for list.head != nil && list.head.lastSeen.Before(cutoff) {
				examined++
				sess := list.head
				s.end(sess.id, sess)
				s.e.evictions.Add(1)
			}
		}
	}
	if ca := s.e.cfg.CompactAfter; ca > 0 {
		cutoff := now.Add(-ca)
		budget := sweepCompactBudget
		for sess := s.live.head; sess != nil && budget > 0 && sess.lastSeen.Before(cutoff); budget-- {
			examined++
			next := sess.next
			// Sessions still voting are skipped in place; they either
			// become eligible later or age out through IdleExpiry.
			s.compactSession(sess)
			sess = next
		}
	}
	if mb := s.e.cfg.MemBudget; mb > 0 {
		// Shed policy stage two: admission refusal was not enough, so
		// evict oldest-idle sessions (cold or live, whichever is older)
		// until the engine-wide gauge is back under budget.
		for s.e.memBytes() > mb {
			sess := s.oldest()
			if sess == nil {
				break
			}
			examined++
			s.end(sess.id, sess)
			s.e.evictions.Add(1)
			s.e.shedEvictions.Add(1)
		}
	}
	return examined
}

// oldest returns the shard's longest-idle session across both lists.
func (s *engineShard) oldest() *engineSession {
	c, l := s.cold.head, s.live.head
	switch {
	case c == nil:
		return l
	case l == nil:
		return c
	case c.lastSeen.Before(l.lastSeen):
		return c
	default:
		return l
	}
}

// compactSession turns one live session past its routing vote into its
// dormant snapshot — the same monitor, so its accounted size stays — and
// moves it to the cold list, whose order is the eviction order of
// compacted sessions. Sessions still voting are left as they are. Runs
// under the shard's lock, and only between waves (the wave is always
// flushed first, so no staged observation can be in flight for the
// session).
func (s *engineShard) compactSession(sess *engineSession) {
	if sess.mon == nil || !sess.mon.Compactable() {
		return
	}
	sess.snap, _ = sess.mon.Compact() // cannot fail past the vote
	sess.mon = nil
	s.live.remove(sess)
	s.cold.pushTail(sess)
	s.e.compacted.Add(1)
	s.e.compactions.Add(1)
}

// compactAll compacts every eligible live session (Engine.Compact).
func (s *engineShard) compactAll() {
	for sess := s.live.head; sess != nil; {
		next := sess.next
		s.compactSession(sess)
		sess = next
	}
}

// evictAll ends every resident session (engine Flush and Close).
func (s *engineShard) evictAll() {
	for id, sess := range s.sessions {
		s.end(id, sess)
	}
}

// end removes one session from the shard — map, list, and memory gauge
// — and reports it to the session-end hook; a compacted session answers
// the summary from its snapshot without rehydrating. Runs under the
// shard's lock. The summary's interner snapshot is taken at end time, so
// it resolves every token the session recorded.
func (s *engineShard) end(id string, sess *engineSession) {
	delete(s.sessions, id)
	if sess.snap != nil {
		s.cold.remove(sess)
		s.e.compacted.Add(-1)
	} else {
		s.live.remove(sess)
	}
	s.mem.Add(-sess.mem)
	sess.mem = 0
	s.e.sessions.Add(-1)
	if s.e.cfg.OnSessionEnd == nil {
		return
	}
	var snap *actionlog.InternSnapshot
	if len(sess.tokens) > 0 {
		snap = s.e.reg.interner.Snapshot()
	}
	sum := SessionSummary{
		SessionID:    id,
		User:         sess.user,
		Start:        sess.start,
		ModelVersion: sess.mv.Version,
		Canary:       sess.canary,
		Unknown:      sess.unknown,
		Alarms:       sess.alarms,
		Tokens:       sess.tokens,
		Snap:         snap,
	}
	mon := sess.mon
	if sess.snap != nil {
		mon = (*SessionMonitor)(sess.snap)
	}
	sum.Cluster, sum.Observed = mon.cluster, mon.position
	sum.MinSmoothed, sum.LastSmoothed = mon.warmMin, mon.smoothed
	s.e.cfg.OnSessionEnd(sum)
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// ReplaySerial scores an event stream on the calling goroutine with one
// SessionMonitor per session, in strict stream order: the reference
// Engine.Replay is byte-identical to. Events with unknown actions are
// skipped, mirroring the engine's scoring-error handling.
func (d *Detector) ReplaySerial(mcfg MonitorConfig, events []actionlog.Event) ([]Alarm, error) {
	monitors := make(map[string]*SessionMonitor)
	var out []Alarm
	var seq uint64
	for _, ev := range events {
		if ev.SessionID == "" || ev.Action == "" {
			return nil, fmt.Errorf("core: serial replay: event missing session_id or action")
		}
		seq++
		mon, ok := monitors[ev.SessionID]
		if !ok {
			var err error
			mon, err = d.NewSessionMonitor(mcfg)
			if err != nil {
				return nil, err
			}
			monitors[ev.SessionID] = mon
		}
		tok := d.Token(ev.Action)
		if tok < 0 {
			continue
		}
		step, err := mon.ObserveToken(tok)
		if err != nil {
			continue
		}
		for _, kind := range step.Alarms {
			out = append(out, Alarm{
				Seq:       seq,
				Time:      ev.Time,
				SessionID: ev.SessionID,
				User:      ev.User,
				Kind:      kind.String(),
				Position:  step.Position,
				Cluster:   step.Cluster,
				// The serial reference scores one fixed model set;
				// version 1 matches a fresh engine registry, keeping
				// the determinism comparison byte-identical.
				ModelVersion: 1,
				Likelihood:   step.Smoothed,
			})
		}
	}
	return out, nil
}
