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
	// raised the alarm; determinism mode orders the alarm stream by it.
	// It is engine-internal and excluded from the wire format.
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
	// Submit and SubmitBatch: backpressure propagates to the producer
	// instead of growing memory without bound. Defaults to 256.
	QueueDepth int
	// IdleExpiry evicts sessions that have not seen an event for this
	// long; 0 disables eviction (replay and tests).
	IdleExpiry time.Duration
	// CompactAfter collapses sessions that have not seen an event for
	// this long into compact snapshots (LSTM hidden/cell state plus the
	// monitor scalars — no scratch, no featurizer, no lazy per-cluster
	// streams), transparently rehydrated on their next event with
	// byte-identical scores. 0 disables background compaction;
	// Engine.Compact compacts on demand regardless. Only sessions past
	// the routing-vote freeze are eligible — younger ones stay live
	// until they either freeze or hit IdleExpiry.
	CompactAfter time.Duration
	// MaxSessions caps resident sessions (live + compacted) across all
	// shards. At the cap, events of new sessions are shed (dropped and
	// counted in ShedSessions/ShedEvents) rather than admitted — the
	// first stage of the shed policy: refuse new work before touching
	// existing sessions. 0 means uncapped.
	MaxSessions int
	// MemBudget bounds the engine's accounted session memory in bytes
	// (the MemBytes gauge: monitors, streams, snapshots, recorded
	// tokens). Over budget, new sessions are refused (as with
	// MaxSessions) and the sweep additionally evicts oldest-idle
	// sessions — with summaries, counted in ShedEvictions — until the
	// gauge is back under budget. 0 means unbounded.
	MemBudget int64
	// AlarmSendTimeout bounds how long a shard blocks delivering one
	// alarm to a streaming sink; past it the alarm is dropped and
	// counted in AlarmsShed, so one stalled consumer degrades to lost
	// alarms instead of wedging the shard (and, through the bounded
	// queues, every producer behind it). 0 keeps the default blocking
	// semantics.
	AlarmSendTimeout time.Duration
	// ScoreBatch caps how many session streams one shard advances in a
	// single fused scorer.AdvanceBatch call when it flushes a staged wave
	// of events. Each shard drains a burst of its queue, stages every
	// event (session lookup, routing vote, prefix catch-up) and groups
	// the staged events by their sessions' concrete sequence model, then
	// drives each group through AdvanceBatch in chunks of this size —
	// one recurrent GEMM and one output GEMM per chunk on the LSTM
	// backend instead of one matrix-vector product per event. 0 defaults
	// to 64; 1 is the serial reference path (every stream advances alone,
	// exactly like per-event scoring). The fused LSTM kernels are
	// bit-identical to the serial ones, so deterministic replay is
	// byte-stable at any setting.
	ScoreBatch int
	// Monitor is the per-session alarm configuration.
	Monitor MonitorConfig
	// Deterministic switches alarm delivery from streaming sinks to an
	// internal buffer that DrainAlarms returns in global submission
	// order, making a sharded replay byte-identical to the serial path.
	Deterministic bool
	// OnSessionEnd, when non-nil, receives a SessionSummary every time a
	// session leaves the engine (idle eviction, Flush, or Close). It is
	// invoked on the owning shard's goroutine, so it must be fast and
	// safe to call from multiple goroutines concurrently; the adaptation
	// pipeline hangs off this hook.
	OnSessionEnd func(SessionSummary)
	// RecordSessions keeps each live session's submitted action tokens
	// (up to MaxRecordedActions) so the SessionSummary can carry the
	// replayable session — the raw material of drift-triggered
	// retraining. Tokens, not names: the summary's interner snapshot
	// decodes them, so recording costs 4 bytes per action and retraining
	// never re-interns strings. Off by default: pure serving should not
	// pay the per-session memory.
	RecordSessions bool
	// MaxRecordedActions bounds the recorded tokens per session when
	// RecordSessions is set; 0 defaults to 512. Sessions running past
	// the cap keep scoring but stop recording.
	MaxRecordedActions int
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
	// enabled (truncated at MaxRecordedActions), nil otherwise; Snap is
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

// DefaultEngineConfig returns production-leaning engine settings.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Shards:     4,
		QueueDepth: 256,
		IdleExpiry: 30 * time.Minute,
		Monitor:    DefaultMonitorConfig(),
	}
}

func (c *EngineConfig) setDefaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.MaxRecordedActions == 0 {
		c.MaxRecordedActions = 512
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
	// BatchesSubmitted counts SubmitBatch/SubmitTokens shard enqueues:
	// EventsSubmitted over it is the realized amortization factor.
	BatchesSubmitted uint64 `json:"batches_submitted"`
	// InternedActions is the size of the edge interner's pool;
	// LearnedActions is how many of those were learned from live traffic
	// beyond the seed vocabulary (the vocabulary-drift surface).
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
	// every resident session's estimated footprint (monitor or
	// snapshot, streams, recorded tokens). MemBudget and MaxSessions
	// echo the configured limits when set.
	MemBytes     int64  `json:"mem_bytes"`
	MemBudget    int64  `json:"mem_budget,omitempty"`
	MaxSessions  int    `json:"max_sessions,omitempty"`
	AlarmsRaised uint64 `json:"alarms_raised"`
	Evictions    uint64 `json:"evictions"`
	ScoreErrors  uint64 `json:"score_errors"`
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
// the interner could not issue a token (learn budget exhausted), so a
// name that is nonetheless in a session's pinned model vocabulary can
// still be scored through the direct-lookup fallback.
type tokEvent struct {
	seq       uint64
	time      time.Time
	sessionID string
	user      string
	action    string
	tok       int32
}

// unknownAction returns the action name to carry for a token the
// interner could not issue, and "" otherwise (the hot path never
// retains the string).
func unknownAction(tok int32, action string) string {
	if tok < 0 {
		return action
	}
	return ""
}

// eventBatch is one pooled unit of batched shard work: all events were
// submitted in one SubmitBatch/SubmitTokens call and hash to the same
// shard, so the shard pays a single channel receive for all of them.
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

// shardMsg is one unit of shard work: a single event, a batch of events,
// or a control message — detach non-nil asks the shard to forget a sink,
// flush asks it to evict every live session now, compact asks it to
// collapse every eligible idle session, and examined non-nil asks it to
// run one maintenance sweep as of sweepAt and report how many sessions
// it examined (the amortization probe used by tests).
type shardMsg struct {
	ev       tokEvent
	sink     chan<- Alarm
	batch    *eventBatch
	detach   chan<- Alarm
	flush    bool
	compact  bool
	sweepAt  time.Time
	examined chan<- int
	ack      chan<- struct{}
}

// remapTable translates interner tokens into one model generation's
// vocabulary indices. It is shard-local (extended lazily as the interner
// learns, only ever touched by the owning shard goroutine) and shared by
// every session of that generation on the shard, so the steady-state
// per-event cost is a single slice index.
type remapTable struct {
	vocab *actionlog.Vocabulary
	toks  []int32
}

// lookup resolves an interner token to the table's vocabulary index, or
// TokenUnknown. Tokens beyond the table are new interner learnings; the
// table extends itself from the current snapshot (which, since the
// interner only grows, covers every token ever issued).
func (rt *remapTable) lookup(in *actionlog.Interner, tok int32) int32 {
	if tok < 0 {
		return actionlog.TokenUnknown
	}
	if int(tok) >= len(rt.toks) {
		rt.extend(in.Snapshot())
		if int(tok) >= len(rt.toks) {
			return actionlog.TokenUnknown
		}
	}
	return rt.toks[tok]
}

func (rt *remapTable) extend(snap *actionlog.InternSnapshot) {
	for i := len(rt.toks); i < snap.Len(); i++ {
		name, _ := snap.Name(int32(i))
		if idx, err := rt.vocab.Index(name); err == nil {
			rt.toks = append(rt.toks, int32(idx))
		} else {
			rt.toks = append(rt.toks, actionlog.TokenUnknown)
		}
	}
}

// engineSession is one live session owned by exactly one shard goroutine.
// The monitor references the detector of the registry generation that was
// current when the session started; version records it for alarm
// stamping. A model reload never touches existing sessions.
type engineSession struct {
	// Exactly one of mon and snap is non-nil: mon while the session is
	// live, snap while it is compacted to its dormant snapshot.
	mon   *SessionMonitor
	snap  *SessionSnapshot
	remap *remapTable
	// id duplicates the session-map key so the intrusive lists below can
	// evict without a reverse lookup.
	id      string
	version uint64
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
	sink     chan<- Alarm
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
// tick. Only the owning shard goroutine touches a list.
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
// resolved, routing voted, stream caught up) but with its stream advance
// deferred to the wave flush, where advances are fused per sequence
// model across sessions.
type stagedEvent struct {
	ev   tokEvent
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

// engineShard owns a partition of the session space: its goroutine is the
// only one touching its map, so scoring needs no locks at all.
type engineShard struct {
	e        *Engine
	in       chan shardMsg
	sessions map[string]*engineSession
	// live and cold order the shard's sessions by lastSeen: live holds
	// sessions with a full monitor, cold the compacted snapshots.
	// Maintenance sweeps pop from the heads (oldest first), so their
	// cost scales with the work done, not the session count.
	live, cold sessList
	// mem is the shard's accounted session memory in bytes. Written
	// only by the shard goroutine, read by Stats and admission checks
	// from other goroutines — hence atomic.
	mem atomic.Int64
	// remaps caches one token→index table per model-generation
	// vocabulary (shard-local, so no locking).
	remaps map[*actionlog.Vocabulary]*remapTable
	// Wave state (shard-goroutine-local): waveID counts flushed waves
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
// The event path is token-based end to end: Submit and SubmitBatch intern
// each action name exactly once at the edge (SubmitTokens accepts events
// the wire parser already interned), shard queues and session records
// carry int32 tokens, and each shard remaps tokens to its sessions'
// pinned model-generation vocabularies through cached index tables —
// after the edge, an event is one interned int moving through a batched
// queue.
//
// Ordering guarantees: events of one session are scored in submission
// order (one session maps to one shard, and a shard consumes its queue
// FIFO; a batch preserves its internal order). Across sessions there is
// no ordering in streaming mode; in deterministic mode DrainAlarms
// restores global submission order.
type Engine struct {
	reg      *Registry
	cfg      EngineConfig
	interner *actionlog.Interner
	shards   []*engineShard
	wg       sync.WaitGroup

	// mu guards closed against Submit/Close races: Submit holds the read
	// lock across its channel send, Close flips closed under the write
	// lock, so no send can land on a closed channel.
	mu     sync.RWMutex
	closed bool

	seq           atomic.Uint64
	submitted     atomic.Uint64
	processed     atomic.Uint64
	batches       atomic.Uint64
	sessions      atomic.Int64
	compacted     atomic.Int64
	compactions   atomic.Uint64
	rehydrations  atomic.Uint64
	alarms        atomic.Uint64
	evictions     atomic.Uint64
	scoreErrors   atomic.Uint64
	shedSessions  atomic.Uint64
	shedEvents    atomic.Uint64
	shedEvictions atomic.Uint64
	alarmsShed    atomic.Uint64
	canaryStarted atomic.Uint64
	canaryAlarmed atomic.Uint64

	// detMu guards detAlarms, the deterministic-mode alarm buffer.
	detMu     sync.Mutex
	detAlarms []Alarm
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
// event, so Registry.Swap (or Engine.Reload) rolls new models out to
// new sessions only — zero downtime, no mid-session weight mixing.
//
// The engine's interner is seeded with the initial generation's
// vocabulary; later generations (even with different vocabularies) reuse
// the same interner, remapping tokens per generation.
func NewEngineRegistry(reg *Registry, cfg EngineConfig) (*Engine, error) {
	if reg == nil {
		return nil, fmt.Errorf("core: engine: nil registry")
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		reg:      reg,
		cfg:      cfg,
		interner: actionlog.NewInterner(reg.Current().Det.Vocabulary()),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &engineShard{
			e:        e,
			in:       make(chan shardMsg, cfg.QueueDepth),
			sessions: make(map[string]*engineSession),
			remaps:   make(map[*actionlog.Vocabulary]*remapTable),
			waveID:   1,
		}
		e.shards = append(e.shards, sh)
		e.wg.Add(1)
		go sh.run()
	}
	return e, nil
}

// Config returns the engine configuration (with defaults applied).
func (e *Engine) Config() EngineConfig { return e.cfg }

// Registry returns the engine's model registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Interner returns the engine's edge interner. The wire layer interns
// action names during parse with it and submits the resulting tokens via
// SubmitTokens; its snapshots also decode recorded session summaries.
func (e *Engine) Interner() *actionlog.Interner { return e.interner }

// Reload atomically swaps in a new detector generation. In-flight
// sessions keep scoring with the generation they started on; sessions
// whose first event arrives after Reload use the new one. It returns
// the installed generation.
func (e *Engine) Reload(det *Detector, source string) (*ModelVersion, error) {
	return e.reg.Swap(det, source)
}

// MemBytes returns the engine's accounted session memory: the summed
// per-shard gauges of every resident session's estimated footprint.
func (e *Engine) MemBytes() int64 {
	var total int64
	for _, sh := range e.shards {
		total += sh.mem.Load()
	}
	return total
}

// admissionBlocked reports whether a NEW session must be refused right
// now: the engine is at its session cap or over its memory budget.
// Existing sessions keep scoring — the shed policy refuses new work
// first and only then (via the sweep) evicts oldest-idle sessions.
func (e *Engine) admissionBlocked() bool {
	if e.cfg.MaxSessions > 0 && e.sessions.Load() >= int64(e.cfg.MaxSessions) {
		return true
	}
	if e.cfg.MemBudget > 0 && e.MemBytes() >= e.cfg.MemBudget {
		return true
	}
	return false
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

// Submit routes one event to its session's shard, interning the action
// name at this edge. It blocks when the shard's queue is full
// (bounded-channel backpressure) until the queue drains, the context is
// canceled, or the engine is closed. In streaming mode alarms raised by
// the event are sent to sink (a nil sink counts alarms without delivering
// them); the session's sink is updated on every event, so the latest
// submitting connection receives the alarms.
//
// Sink contract: alarm sends block, so the caller must keep draining a
// non-nil sink until Detach(sink) has returned — abandoning it can stall
// the session's shard and everything queued behind it.
func (e *Engine) Submit(ctx context.Context, ev actionlog.Event, sink chan<- Alarm) error {
	if ev.SessionID == "" || ev.Action == "" {
		return fmt.Errorf("core: engine: event missing session_id or action")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return fmt.Errorf("core: engine: closed")
	}
	return e.sendOne(ctx, &ev, e.interner.Intern(ev.Action), sink)
}

// sendOne enqueues one tokenized event on its shard. The caller holds
// the closed-guard read lock.
func (e *Engine) sendOne(ctx context.Context, ev *actionlog.Event, tok int32, sink chan<- Alarm) error {
	msg := shardMsg{
		ev: tokEvent{
			seq:       e.seq.Add(1),
			time:      ev.Time,
			sessionID: ev.SessionID,
			user:      ev.User,
			action:    unknownAction(tok, ev.Action),
			tok:       tok,
		},
		sink: sink,
	}
	select {
	case e.shards[e.shardIndex(ev.SessionID)].in <- msg:
		e.submitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitBatch interns and submits a batch of events in one pass: events
// are grouped by owning shard into pooled batches, and each shard pays a
// single channel receive for its whole group. Per-session submission
// order is preserved. A full shard queue blocks (the same backpressure
// contract as Submit); on context cancellation a prefix of the batch may
// already have been submitted — the error reports how many events were
// not.
func (e *Engine) SubmitBatch(ctx context.Context, evs []actionlog.Event, sink chan<- Alarm) error {
	for i := range evs {
		if evs[i].SessionID == "" || evs[i].Action == "" {
			return fmt.Errorf("core: engine: batch event %d missing session_id or action", i)
		}
	}
	return e.submitTokenized(ctx, len(evs), func(i int) (*actionlog.Event, int32) {
		return &evs[i], e.interner.Intern(evs[i].Action)
	}, sink)
}

// SubmitTokens submits a batch of pre-tokenized events: the wire edge
// interned each action during parse (via Interner), so the engine never
// touches the action strings again. Semantics match SubmitBatch.
func (e *Engine) SubmitTokens(ctx context.Context, evs []BatchEvent, sink chan<- Alarm) error {
	for i := range evs {
		if evs[i].Ev.SessionID == "" || (evs[i].Tok < 0 && evs[i].Ev.Action == "") {
			return fmt.Errorf("core: engine: batch event %d missing session_id or action", i)
		}
	}
	return e.submitTokenized(ctx, len(evs), func(i int) (*actionlog.Event, int32) {
		return &evs[i].Ev, evs[i].Tok
	}, sink)
}

// submitTokenized is the shared batch-submission body: sequence numbers
// are assigned in input order (so deterministic replays are byte-identical
// to per-event submission), events are packed into per-shard pooled
// batches, and the batches are enqueued under the closed-guard read lock.
func (e *Engine) submitTokenized(ctx context.Context, n int, at func(int) (*actionlog.Event, int32), sink chan<- Alarm) error {
	if n == 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return fmt.Errorf("core: engine: closed")
	}
	if n == 1 {
		// Single-event fast path: no pooled batch, one inline message.
		ev, tok := at(0)
		if err := e.sendOne(ctx, ev, tok, sink); err != nil {
			return fmt.Errorf("core: engine: batch submit: 1 of 1 events not submitted: %w", err)
		}
		return nil
	}
	batches := make([]*eventBatch, len(e.shards))
	for i := 0; i < n; i++ {
		ev, tok := at(i)
		si := e.shardIndex(ev.SessionID)
		b := batches[si]
		if b == nil {
			b = newEventBatch(sink)
			batches[si] = b
		}
		b.evs = append(b.evs, tokEvent{
			seq:       e.seq.Add(1),
			time:      ev.Time,
			sessionID: ev.SessionID,
			user:      ev.User,
			action:    unknownAction(tok, ev.Action),
			tok:       tok,
		})
	}
	dropped := 0
	var cause error
	for si, b := range batches {
		if b == nil {
			continue
		}
		if cause != nil {
			dropped += len(b.evs)
			releaseBatch(b)
			continue
		}
		// Snapshot the size before the send: the shard may process and
		// recycle the batch the instant it lands on the channel.
		size := uint64(len(b.evs))
		select {
		case e.shards[si].in <- shardMsg{batch: b}:
			e.submitted.Add(size)
			e.batches.Add(1)
		case <-ctx.Done():
			cause = ctx.Err()
			dropped += int(size)
			releaseBatch(b)
		}
	}
	if cause != nil {
		return fmt.Errorf("core: engine: batch submit: %d of %d events not submitted: %w", dropped, n, cause)
	}
	return nil
}

// Detach tells every shard to forget the given sink and blocks until all
// shards have acknowledged. Because each shard consumes its queue FIFO,
// every event submitted with that sink before the Detach has been scored
// by the time Detach returns: afterwards the engine never sends to the
// sink again and the caller may close it. The caller must keep draining
// the sink until Detach returns — a shard blocked sending to an
// abandoned sink can never reach the detach control message.
func (e *Engine) Detach(sink chan<- Alarm) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		// Closing: the shard queues may already be closed, so the
		// control message cannot be enqueued. Wait for the shards to
		// finish draining instead — afterwards nothing can send to the
		// sink either, which preserves Detach's contract.
		e.wg.Wait()
		return
	}
	ack := make(chan struct{}, len(e.shards))
	for _, sh := range e.shards {
		sh.in <- shardMsg{detach: sink, ack: ack}
	}
	e.mu.RUnlock()
	for range e.shards {
		<-ack
	}
}

// Flush ends every live session on every shard now — emitting a
// SessionSummary per session when the hook is set — and blocks until all
// shards have done so. Because shards consume FIFO, every event submitted
// before the Flush is scored first. Replay-style adaptation (and tests)
// use it where production serving relies on idle eviction.
func (e *Engine) Flush() {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		// Closing already ends every session; wait for that instead.
		e.wg.Wait()
		return
	}
	ack := make(chan struct{}, len(e.shards))
	for _, sh := range e.shards {
		sh.in <- shardMsg{flush: true, ack: ack}
	}
	e.mu.RUnlock()
	for range e.shards {
		<-ack
	}
}

// Compact collapses every eligible idle session on every shard into its
// dormant snapshot now, without waiting for CompactAfter, and blocks
// until all shards have done so. Sessions still inside their routing
// vote (and backends without compaction support) stay live. Because
// shards consume FIFO, every event submitted before the Compact is
// scored first; the memory census tests use this to measure resting
// memory deterministically.
func (e *Engine) Compact() {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.wg.Wait()
		return
	}
	ack := make(chan struct{}, len(e.shards))
	for _, sh := range e.shards {
		sh.in <- shardMsg{compact: true, ack: ack}
	}
	e.mu.RUnlock()
	for range e.shards {
		<-ack
	}
}

// sweepNow runs one maintenance sweep on every shard as of now and
// returns the total number of sessions the sweeps examined — the
// amortization probe the eviction tests pin against.
func (e *Engine) sweepNow(now time.Time) int {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return 0
	}
	out := make(chan int, len(e.shards))
	for _, sh := range e.shards {
		sh.in <- shardMsg{sweepAt: now, examined: out}
	}
	e.mu.RUnlock()
	total := 0
	for range e.shards {
		total += <-out
	}
	return total
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
	snap := e.interner.Snapshot()
	st := EngineStats{
		Shards:       len(e.shards),
		Backend:      mv.Det.Backend(),
		ModelVersion: mv.Version,
		// Derived from the version so swaps through Registry() directly
		// (not just Engine.Reload) are counted too.
		Reloads:           mv.Version - 1,
		EventsSubmitted:   submitted,
		EventsProcessed:   processed,
		EventsInFlight:    submitted - processed,
		BatchesSubmitted:  e.batches.Load(),
		InternedActions:   snap.Len(),
		LearnedActions:    snap.Len() - snap.Base(),
		SessionsLive:      uint64(live),
		SessionsCompacted: uint64(compacted),
		Compactions:       e.compactions.Load(),
		Rehydrations:      e.rehydrations.Load(),
		MemBytes:          e.MemBytes(),
		MemBudget:         e.cfg.MemBudget,
		MaxSessions:       e.cfg.MaxSessions,
		AlarmsRaised:      e.alarms.Load(),
		Evictions:         e.evictions.Load(),
		ScoreErrors:       e.scoreErrors.Load(),
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

// Drain blocks until every submitted event has been scored. The caller
// must have stopped submitting; Drain does not prevent new submissions.
func (e *Engine) Drain(ctx context.Context) error {
	for e.processed.Load() < e.submitted.Load() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// DrainAlarms waits for the queues to empty and returns the buffered
// deterministic-mode alarms in global submission order, clearing the
// buffer. Stable sorting keeps the emission order of multiple alarms from
// one event.
func (e *Engine) DrainAlarms(ctx context.Context) ([]Alarm, error) {
	if !e.cfg.Deterministic {
		return nil, fmt.Errorf("core: engine: DrainAlarms requires Deterministic mode")
	}
	if err := e.Drain(ctx); err != nil {
		return nil, err
	}
	e.detMu.Lock()
	out := e.detAlarms
	e.detAlarms = nil
	e.detMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// replayChunk is the SubmitBatch size Replay slices its stream into.
const replayChunk = 256

// Replay pushes a whole event stream through the sharded engine in
// batches and returns the alarms in submission order: the deterministic
// batch mode.
func (e *Engine) Replay(ctx context.Context, events []actionlog.Event) ([]Alarm, error) {
	for off := 0; off < len(events); off += replayChunk {
		end := off + replayChunk
		if end > len(events) {
			end = len(events)
		}
		if err := e.SubmitBatch(ctx, events[off:end], nil); err != nil {
			return nil, err
		}
	}
	return e.DrainAlarms(ctx)
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
// eviction, compaction, budget shedding) on the ticker. The wave is
// ALWAYS flushed before the loop re-enters the outer select: a staged
// event has not been counted processed yet, so leaving one parked would
// wedge Drain (and with it DrainAlarms, Replay, and every caller that
// waits for the queues to empty) — and it also means the sweep never
// sees a session with an observation in flight.
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
			// Opportunistic burst drain: after the blocking receive,
			// consume whatever else is already queued without going
			// back through the outer select.
			for burst := 0; ; burst++ {
				if !ok {
					// Closing: finish staged work, then end every
					// remaining session so the adaptation hook sees
					// the complete picture.
					s.flushWave()
					s.evictAll()
					return
				}
				s.dispatch(msg)
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
		case <-tick:
			s.sweep(time.Now())
		}
	}
}

// dispatch routes one queue message: control, batch, or single event.
// Control messages flush the staged wave first, so the FIFO contract of
// Detach and Flush (everything submitted before them is fully scored)
// holds with staging in play. Event batches are released as soon as
// their events are staged — staging copies each tokEvent by value.
func (s *engineShard) dispatch(msg shardMsg) {
	switch {
	case msg.detach != nil:
		s.flushWave()
		for _, sess := range s.sessions {
			if sess.sink == msg.detach {
				sess.sink = nil
			}
		}
		msg.ack <- struct{}{}
	case msg.flush:
		s.flushWave()
		s.evictAll()
		msg.ack <- struct{}{}
	case msg.compact:
		s.flushWave()
		s.compactAll()
		msg.ack <- struct{}{}
	case msg.examined != nil:
		s.flushWave()
		msg.examined <- s.sweep(msg.sweepAt)
	case msg.batch != nil:
		now := time.Now()
		for i := range msg.batch.evs {
			s.stageEvent(&msg.batch.evs[i], msg.batch.sink, now)
		}
		releaseBatch(msg.batch)
	default:
		s.stageEvent(&msg.ev, msg.sink, time.Now())
	}
}

// maxShardRemaps caps a shard's remap cache; crossing it triggers a
// prune of tables for retired generations.
const maxShardRemaps = 8

// remapFor returns the shard's cached token→index table for a model
// generation's vocabulary. Before caching yet another generation's
// table, tables no live session references are pruned — a long-lived
// daemon cycling through retrain/hot-swap generations would otherwise
// retain one table per reload forever.
func (s *engineShard) remapFor(vocab *actionlog.Vocabulary) *remapTable {
	rt, ok := s.remaps[vocab]
	if !ok {
		if len(s.remaps) >= maxShardRemaps {
			s.pruneRemaps()
		}
		rt = &remapTable{vocab: vocab}
		s.remaps[vocab] = rt
	}
	return rt
}

// pruneRemaps drops cached tables whose vocabulary no live session on
// this shard is pinned to. Runs only on the shard goroutine.
func (s *engineShard) pruneRemaps() {
	live := make(map[*actionlog.Vocabulary]bool, len(s.remaps))
	for _, sess := range s.sessions {
		live[sess.remap.vocab] = true
	}
	for v := range s.remaps {
		if !live[v] {
			delete(s.remaps, v)
		}
	}
}

// maxWave bounds how many staged events a shard parks before flushing
// mid-burst, so a burst of large submitted batches cannot grow the wave
// without bound.
const maxWave = 1024

// stageEvent resolves one tokenized event — session lookup or creation,
// vocabulary remap, routing vote, prefix catch-up — and parks it on the
// shard's current wave for the fused stream advance at flush time. Runs
// only on the shard goroutine: the session map, the remap tables, and
// the monitors (with their preallocated scratch buffers) are
// shard-local. Events that finish at stage time (unknown action, scoring
// error) are counted processed immediately; staged events are counted
// when the wave flushes.
func (s *engineShard) stageEvent(ev *tokEvent, sink chan<- Alarm, now time.Time) {
	sess, ok := s.sessions[ev.sessionID]
	if ok && sess.waveMark == s.waveID {
		// Second event of one session in the same wave: the engine's
		// ordering guarantee is per-session submission order, so the
		// pending observation must complete before this one stages.
		// Flushing before the session is touched also keeps the staged
		// event's alarms going to the sink of its own submission.
		s.flushWave()
	}
	grew := false
	if !ok {
		if s.e.admissionBlocked() {
			// Load shedding, stage one: at the session cap or over the
			// memory budget, events of sessions the engine does not
			// already know are refused — dropped and counted, never
			// queued — so resident sessions keep scoring at full speed.
			// The event still counts processed: a shed event is finished
			// work as far as Drain is concerned.
			s.e.shedSessions.Add(1)
			s.e.shedEvents.Add(1)
			s.e.processed.Add(1)
			return
		}
		// Pin the session to the registry generation current at its
		// first event: the monitor holds that generation's detector, so
		// a concurrent Reload never changes the weights mid-session.
		// The generation also pins the monitor configuration when it
		// carries a calibrated one: recalibrated floors roll out with
		// the weights they were calibrated for. With a canary pending,
		// Assign deterministically routes the canary fraction of new
		// sessions to the candidate generation instead.
		mv, canary := s.e.reg.Assign(ev.sessionID)
		mcfg := s.e.cfg.Monitor
		if mv.Monitor != nil {
			mcfg = *mv.Monitor
		}
		mon, err := mv.Det.NewSessionMonitor(mcfg)
		if err != nil {
			// Config was validated at NewEngine; failing here means the
			// detector itself is unusable.
			s.e.scoreErrors.Add(1)
			s.e.logf("session %s: %v", ev.sessionID, err)
			return
		}
		sess = &engineSession{
			mon:     mon,
			remap:   s.remapFor(mv.Det.Vocabulary()),
			id:      ev.sessionID,
			version: mv.Version,
			canary:  canary,
			user:    ev.user,
			start:   ev.time,
		}
		s.sessions[ev.sessionID] = sess
		s.live.pushTail(sess)
		s.e.sessions.Add(1)
		grew = true
		if canary {
			s.e.canaryStarted.Add(1)
		}
	} else if sess.snap != nil {
		// Transparent rehydration: the session was compacted while
		// idle; rebuild its live monitor (byte-identical continuation)
		// before staging the event.
		mon, err := sess.snap.Rehydrate()
		if err != nil {
			// The session stays compacted (its summary is still
			// accurate); the event is dropped as a score error.
			s.e.scoreErrors.Add(1)
			s.e.processed.Add(1)
			s.e.logf("session %s: rehydrate: %v", ev.sessionID, err)
			return
		}
		sess.mon = mon
		sess.snap = nil
		s.cold.remove(sess)
		s.live.pushTail(sess)
		s.e.compacted.Add(-1)
		s.e.rehydrations.Add(1)
		grew = true
	} else {
		s.live.moveTail(sess)
	}
	sess.sink = sink
	sess.lastSeen = now
	tokCap := cap(sess.tokens)
	if s.e.cfg.RecordSessions && ev.tok >= 0 && len(sess.tokens) < s.e.cfg.MaxRecordedActions {
		sess.tokens = append(sess.tokens, ev.tok)
	}
	// Re-account the session while its footprint can still change: on
	// creation and rehydration, while the routing vote may lazily build
	// streams and grow the prefix buffer, and when the recorded-token
	// buffer reallocates. Past the vote freeze a live session's size is
	// constant, so the steady-state hot path skips the walk.
	grew = grew || cap(sess.tokens) != tokCap || sess.mon.voting()
	idx := sess.remap.lookup(s.e.interner, ev.tok)
	if idx < 0 && ev.action != "" {
		// The interner's learn budget is exhausted (the only way an
		// event still carries its action name): resolve directly
		// against the session's pinned vocabulary so a legitimate
		// in-vocabulary action keeps scoring even with a saturated
		// intern pool.
		if i, err := sess.remap.vocab.Index(ev.action); err == nil {
			idx = int32(i)
		}
	}
	if idx < 0 {
		// The action is outside this session's model vocabulary: count
		// it on the session so the summary exposes the unknown-action
		// rate vocabulary-drift detection watches. The interner already
		// holds the name (as a learned token), so retraining can absorb
		// it later.
		sess.unknown++
		s.e.scoreErrors.Add(1)
		s.e.processed.Add(1)
		if s.e.cfg.Logf != nil {
			name := ev.action
			if ev.tok >= 0 {
				name, _ = s.e.interner.Snapshot().Name(ev.tok)
			}
			s.e.logf("session %s: unknown action %q (token %d)", ev.sessionID, name, ev.tok)
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
		// After StageToken: the vote may just have created this
		// cluster's stream, the dominant per-session allocation.
		s.resize(sess)
	}
	sess.waveMark = s.waveID
	s.wave = append(s.wave, stagedEvent{ev: *ev, sess: sess, sc: sc, st: st, idx: idx})
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
			ModelVersion: sess.version,
			Likelihood:   step.Smoothed,
		}
		s.e.alarms.Add(1)
		if s.e.cfg.Deterministic {
			s.e.detMu.Lock()
			s.e.detAlarms = append(s.e.detAlarms, a)
			s.e.detMu.Unlock()
		} else if sess.sink != nil {
			s.sendAlarm(sess.sink, a)
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

// resize re-estimates one session's memory footprint and folds the
// delta into the shard gauge. Runs only on the shard goroutine (the
// gauge itself is atomic so Stats and admission checks can read it).
func (s *engineShard) resize(sess *engineSession) {
	n := int64(sessionOverhead + len(sess.id) + cap(sess.tokens)*4)
	if sess.snap != nil {
		n += int64(sess.snap.MemSize())
	} else if sess.mon != nil {
		n += int64(sess.mon.MemSize())
	}
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
			// Ineligible sessions (mid-vote, or a backend without
			// compaction) are skipped in place; they either become
			// eligible later or age out through IdleExpiry.
			s.compactSession(sess)
			sess = next
		}
	}
	if mb := s.e.cfg.MemBudget; mb > 0 {
		// Shed policy stage two: admission refusal was not enough, so
		// evict oldest-idle sessions (cold or live, whichever is older)
		// until the engine-wide gauge is back under budget.
		for s.e.MemBytes() > mb {
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

// compactSession collapses one live session into its dormant snapshot
// and moves it to the cold list. Ineligible sessions are left as they
// are. Runs only on the shard goroutine, and only between waves (the
// wave is always flushed first, so no staged observation can be in
// flight for the session).
func (s *engineShard) compactSession(sess *engineSession) {
	if sess.mon == nil || !sess.mon.Compactable() {
		return
	}
	snap, err := sess.mon.Compact()
	if err != nil {
		s.e.logf("session %s: compact: %v", sess.id, err)
		return
	}
	sess.mon = nil
	sess.snap = snap
	s.live.remove(sess)
	s.cold.pushTail(sess)
	s.e.compacted.Add(1)
	s.e.compactions.Add(1)
	s.resize(sess)
}

// compactAll collapses every eligible live session (Engine.Compact).
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
// the summary from its snapshot without rehydrating. Runs only on the
// shard goroutine. The summary's interner snapshot is taken at end
// time, so it resolves every token the session recorded.
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
		snap = s.e.interner.Snapshot()
	}
	sum := SessionSummary{
		SessionID:    id,
		User:         sess.user,
		Start:        sess.start,
		ModelVersion: sess.version,
		Canary:       sess.canary,
		Unknown:      sess.unknown,
		Alarms:       sess.alarms,
		Tokens:       sess.tokens,
		Snap:         snap,
	}
	if sess.snap != nil {
		sum.Cluster = sess.snap.Cluster()
		sum.Observed = sess.snap.Position()
		sum.MinSmoothed = sess.snap.MinSmoothed()
		sum.LastSmoothed = sess.snap.Smoothed()
	} else {
		sum.Cluster = sess.mon.Cluster()
		sum.Observed = sess.mon.Position()
		sum.MinSmoothed = sess.mon.MinSmoothed()
		sum.LastSmoothed = sess.mon.Smoothed()
	}
	s.e.cfg.OnSessionEnd(sum)
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// ReplaySerial scores an event stream on the calling goroutine with one
// SessionMonitor per session, in strict stream order: the reference the
// engine's determinism mode is byte-identical to. Events with unknown
// actions are skipped, mirroring the engine's scoring-error handling.
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
