package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// monitorCompactionByteIdentity walks corpus sessions through two
// monitors in lockstep — one uninterrupted, one compacted and
// rehydrated at EVERY eligible position — and requires bit-identical
// likelihoods, smoothed scores, and alarms at every step. This is the
// compaction contract: a snapshot is not an approximation of the
// session, it IS the session.
func monitorCompactionByteIdentity(t *testing.T, det *Detector) {
	t.Helper()
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	mcfg := DefaultMonitorConfig()
	compactions := 0
	for ci, sessions := range c.ByCluster() {
		for si, sess := range sessions {
			if si >= 2 {
				break // two sessions per cluster keep the test fast
			}
			ref, err := det.NewSessionMonitor(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			cmp, err := det.NewSessionMonitor(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			for pos, action := range sess.Actions {
				tok := det.Token(action)
				if tok < 0 {
					t.Fatalf("cluster %d session %d: action %q not in vocabulary", ci, si, action)
				}
				want, err := ref.ObserveToken(tok)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cmp.ObserveToken(tok)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(want.Likelihood) != math.Float64bits(got.Likelihood) ||
					math.Float64bits(want.Smoothed) != math.Float64bits(got.Smoothed) ||
					want.Cluster != got.Cluster ||
					fmt.Sprint(want.Alarms) != fmt.Sprint(got.Alarms) {
					t.Fatalf("cluster %d session %d position %d: compacted monitor diverges\nwant %+v\ngot  %+v",
						ci, si, pos, want, got)
				}
				if cmp.Compactable() {
					// A frozen monitor is its own snapshot: the round trip
					// returns the same monitor at the same accounted size
					// and allocates nothing.
					live := cmp.MemSize()
					var snapSize int
					var woken *SessionMonitor
					allocs := testing.AllocsPerRun(20, func() {
						snap, err := cmp.Compact()
						if err != nil {
							t.Fatal(err)
						}
						snapSize = snap.MemSize()
						if woken, err = snap.Rehydrate(); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 || woken != cmp || snapSize != live || woken.MemSize() != live {
						t.Fatalf("cluster %d session %d: compact+rehydrate allocated %v times, returned a new monitor %v; sizes live %dB, snapshot %dB, woken %dB",
							ci, si, allocs, woken != cmp, live, snapSize, woken.MemSize())
					}
					compactions++
				}
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no session ever became compactable; the byte-identity comparison was vacuous")
	}
}

// TestMonitorCompactionByteIdenticalLSTM anchors compact->rehydrate
// determinism for the LSTM backend.
func TestMonitorCompactionByteIdenticalLSTM(t *testing.T) {
	monitorCompactionByteIdentity(t, corpusDetector(t))
}

// TestMonitorCompactionByteIdenticalNGram anchors it for the n-gram
// backend.
func TestMonitorCompactionByteIdenticalNGram(t *testing.T) {
	monitorCompactionByteIdentity(t, trainCorpusNGram(t, 11))
}

// TestMonitorCompactionByteIdenticalHMM anchors it for the HMM backend.
func TestMonitorCompactionByteIdenticalHMM(t *testing.T) {
	monitorCompactionByteIdentity(t, trainCorpusHMM(t, 11))
}

// TestEngineDeterminismWithCompaction replays the corpus through the
// sharded engine with a forced Compact between every few batches and
// requires the alarm stream to stay byte-identical to the serial
// monitor's — compaction interleaved with live scoring must be
// invisible in the scores, across shard counts. After every batch the
// memory gauge must equal a recount of the resident sessions, some of
// them still voting, some frozen and some compacted.
func TestEngineDeterminismWithCompaction(t *testing.T) {
	det := corpusDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	mcfg := DefaultMonitorConfig()
	serial, err := det.ReplaySerial(mcfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("serial replay raised no alarms; the comparison would be vacuous")
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, shards := range []int{1, 3, 8} {
		eng, err := NewEngine(det, EngineConfig{
			Shards:     shards,
			QueueDepth: 64,
			Monitor:    mcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		sink, collect := collectAlarms(eng)
		const chunk = 64
		mixed := false
		for off, batches := 0, 0; off < len(events); off += chunk {
			end := off + chunk
			if end > len(events) {
				end = len(events)
			}
			if err := submitEvents(ctx, eng, events[off:end], sink); err != nil {
				t.Fatal(err)
			}
			voting, frozen, compacted := memRecount(t, eng)
			mixed = mixed || voting > 0 && frozen > 0 && compacted > 0
			if batches++; batches%3 == 0 {
				eng.Compact()
			}
		}
		if !mixed {
			t.Fatalf("shards=%d: no recount saw voting, frozen live and compacted sessions at once", shards)
		}
		got := collect()
		st := eng.Stats()
		eng.Close()
		if st.Compactions == 0 {
			t.Fatalf("shards=%d: no compactions happened; the test exercised nothing", shards)
		}
		if st.Rehydrations == 0 {
			t.Fatalf("shards=%d: no rehydrations happened; every compacted session stayed cold", shards)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(want) {
			t.Fatalf("shards=%d: alarm stream diverges across compaction (serial %d alarms, engine %d)",
				shards, len(serial), len(got))
		}
	}
}

// memRecount recounts every resident session's footprint on its shard —
// live monitors' MemSize, snapshots' MemSize, and the session overhead
// resize adds — and requires Engine.memBytes to equal the sum. Sessions
// still voting must carry route state and their vote leader's stream;
// live ones past the vote freeze (voting reports whether the vote state
// is still held) must have kept the winner's stream. It returns how many
// sessions of each kind it counted.
func memRecount(t *testing.T, eng *Engine) (voting, frozen, compacted int) {
	t.Helper()
	var mu sync.Mutex
	var total int64
	eng.broadcast(func(s *engineShard) {
		mu.Lock()
		defer mu.Unlock()
		for _, sess := range s.sessions {
			total += int64(sessionOverhead + len(sess.id) + cap(sess.tokens)*4)
			switch {
			case sess.snap != nil:
				total += int64(sess.snap.MemSize())
				compacted++
			case sess.mon.voting():
				total += int64(sess.mon.MemSize())
				if len(sess.mon.vote.route) == 0 || sess.mon.stream == nil {
					t.Errorf("session %s is voting without route state, or without its leader's stream", sess.id)
				}
				voting++
			default:
				total += int64(sess.mon.MemSize())
				if sess.mon.stream == nil {
					t.Errorf("session %s froze its vote without keeping the winner's stream", sess.id)
				}
				frozen++
			}
		}
	})
	if got := eng.memBytes(); got != total {
		t.Fatalf("MemBytes %d, recount %d (%d voting, %d frozen live, %d compacted sessions)", got, total, voting, frozen, compacted)
	}
	return voting, frozen, compacted
}

// memplaneEvents builds n single-action session starts, one session per
// event, ids prefixed for set comparisons.
func memplaneEvents(det *Detector, n, actionsPer int) []actionlog.Event {
	action := logsim.ActionNames()[0]
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	var evs []actionlog.Event
	for a := 0; a < actionsPer; a++ {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("mp-%04d", i)
			evs = append(evs, actionlog.Event{
				Time: base.Add(time.Duration(len(evs)) * time.Second), User: id, SessionID: id, Action: action,
			})
		}
	}
	return evs
}

// TestSweepExaminesOnlyActionableSessions pins the satellite fix for
// the O(sessions) idle sweep: a maintenance pass over a shard full of
// fresh sessions examines nothing (it peeks at one list head per list
// and stops), and an expiry pass examines exactly the sessions it
// evicts.
func TestSweepExaminesOnlyActionableSessions(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	eng, err := NewEngine(det, EngineConfig{
		Shards:     3,
		QueueDepth: 64,
		IdleExpiry: time.Hour,
		Monitor:    DefaultMonitorConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const n = 200
	if err := submitEvents(ctx, eng, memplaneEvents(det, n, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if examined := eng.sweepNow(time.Now()); examined != 0 {
		t.Fatalf("sweep over %d fresh sessions examined %d, want 0 (O(work), not O(resident))", n, examined)
	}
	if examined := eng.sweepNow(time.Now().Add(2 * time.Hour)); examined != n {
		t.Fatalf("expiry sweep examined %d, want exactly the %d sessions it evicted", examined, n)
	}
	st := eng.Stats()
	if st.Evictions != n || st.SessionsLive != 0 {
		t.Fatalf("after expiry sweep: evictions %d live %d, want %d and 0", st.Evictions, st.SessionsLive, n)
	}
	if examined := eng.sweepNow(time.Now().Add(2 * time.Hour)); examined != 0 {
		t.Fatalf("sweep over an empty shard examined %d, want 0", examined)
	}
}

// summaryRecorder collects SessionSummary deliveries and flags
// duplicates — the exactly-once check.
type summaryRecorder struct {
	mu   sync.Mutex
	seen map[string]int
}

func (r *summaryRecorder) record(sum SessionSummary) {
	r.mu.Lock()
	if r.seen == nil {
		r.seen = make(map[string]int)
	}
	r.seen[sum.SessionID]++
	r.mu.Unlock()
}

func (r *summaryRecorder) counts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.seen))
	for k, v := range r.seen {
		out[k] = v
	}
	return out
}

// TestEngineMaxSessionsSheds drives a burst far past MaxSessions across
// shard counts and checks the documented shed policy: new sessions are
// refused (counted, and their events still drain), resident sessions
// never exceed the cap, every admitted session ends with exactly one
// summary, and every raised alarm is delivered exactly once.
func TestEngineMaxSessionsSheds(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	// A floor of 1.0 alarms on every scored post-warmup action, making
	// the alarm-delivery accounting non-vacuous.
	mcfg := DefaultMonitorConfig()
	mcfg.LikelihoodFloor = 1.0
	mcfg.WarmupActions = 1
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const cap = 16
			rec := &summaryRecorder{}
			eng, err := NewEngine(det, EngineConfig{
				Shards:       shards,
				QueueDepth:   64,
				MaxSessions:  cap,
				Monitor:      mcfg,
				OnSessionEnd: rec.record,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			sink := make(chan Alarm, 1<<16)
			if err := submitEvents(ctx, eng, memplaneEvents(det, 64, 4), sink); err != nil {
				t.Fatal(err)
			}
			if err := eng.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			st := eng.Stats()
			if st.ShedSessions == 0 || st.ShedEvents == 0 {
				t.Fatalf("no shedding at 64 sessions over a cap of %d: %+v", cap, st)
			}
			if st.SessionsLive > cap {
				t.Fatalf("resident sessions %d exceed MaxSessions %d", st.SessionsLive, cap)
			}
			if st.EventsProcessed != st.EventsSubmitted {
				t.Fatalf("drain returned with %d of %d events processed: shed events must still count",
					st.EventsProcessed, st.EventsSubmitted)
			}
			if delivered := uint64(len(sink)); delivered != st.AlarmsRaised {
				t.Fatalf("delivered %d alarms, stats raised %d: alarms must arrive exactly once", delivered, st.AlarmsRaised)
			}
			resident := st.SessionsLive
			eng.Flush()
			counts := rec.counts()
			if uint64(len(counts)) != resident {
				t.Fatalf("got %d session summaries, want one per %d admitted sessions", len(counts), resident)
			}
			for id, n := range counts {
				if n != 1 {
					t.Fatalf("session %s summarized %d times, want exactly once", id, n)
				}
			}
			eng.Close()
		})
	}
}

// TestEngineMemBudgetEvicts pins shed-policy stage two: past MemBudget
// the sweep evicts oldest-idle sessions (with summaries, exactly once)
// until the accounted gauge is back under budget, and counts them in
// ShedEvictions.
func TestEngineMemBudgetEvicts(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	rec := &summaryRecorder{}
	eng, err := NewEngine(det, EngineConfig{
		Shards:       3,
		QueueDepth:   64,
		MemBudget:    16 << 10,
		Monitor:      DefaultMonitorConfig(),
		OnSessionEnd: rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := submitEvents(ctx, eng, memplaneEvents(det, 64, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	eng.sweepNow(time.Now())
	st := eng.Stats()
	if st.MemBytes > st.MemBudget {
		t.Fatalf("after sweep the gauge is %dB, over the %dB budget", st.MemBytes, st.MemBudget)
	}
	if st.ShedEvictions == 0 {
		t.Fatalf("no budget evictions under a %dB budget: %+v", 16<<10, st)
	}
	evicted := st.ShedEvictions
	eng.Flush()
	eng.Close()
	counts := rec.counts()
	total := 0
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("session %s summarized %d times, want exactly once", id, n)
		}
		total += n
	}
	if uint64(total) != evicted+st.SessionsLive {
		t.Fatalf("summaries %d != budget-evicted %d + flushed %d: evict and flush must each end a session exactly once",
			total, evicted, st.SessionsLive)
	}
}

// TestEngineAlarmSendTimeout pins the slow-consumer satellite: with an
// unread alarm sink and AlarmSendTimeout set, the shard drops alarms
// after the bounded wait (counting them in AlarmsShed) instead of
// wedging — Drain must return.
func TestEngineAlarmSendTimeout(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	mcfg := DefaultMonitorConfig()
	mcfg.LikelihoodFloor = 1.0
	mcfg.WarmupActions = 1
	eng, err := NewEngine(det, EngineConfig{
		Shards:           2,
		QueueDepth:       64,
		AlarmSendTimeout: time.Millisecond,
		Monitor:          mcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sink := make(chan Alarm) // unbuffered, never read: the pathological consumer
	if err := submitEvents(ctx, eng, memplaneEvents(det, 8, 4), sink); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("drain wedged behind the slow alarm consumer: %v", err)
	}
	if st := eng.Stats(); st.AlarmsShed == 0 {
		t.Fatalf("no alarms shed despite an unread sink: %+v", st)
	}
}

// TestParseByteSize round-trips the operator notation of misused
// -mem-budget.
func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"1024", 1024},
		{"1k", 1 << 10},
		{"1KB", 1 << 10},
		{"512m", 512 << 20},
		{"1.5g", 3 << 29},
		{"2G", 2 << 30},
		{"1t", 1 << 40},
		{" 64 m ", 64 << 20},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	// Non-finite sizes and sizes of 2^63 bytes or more do not fit an int64.
	for _, bad := range []string{"", "x", "-1k", "12q", "1.2.3m", "nan", "inf", "1e30g", "8589934592g"} {
		_, err := ParseByteSize(bad)
		if err == nil {
			t.Fatalf("ParseByteSize(%q) accepted, want error", bad)
		}
		if bad != "" && !strings.Contains(err.Error(), bad) {
			t.Fatalf("ParseByteSize(%q) error %q does not name the input", bad, err)
		}
	}
	if got, err := ParseByteSize("8589934591g"); err != nil || got != 8589934591<<30 {
		t.Fatalf("ParseByteSize(%q) = %d, %v; want the largest whole-GiB size", "8589934591g", got, err)
	}
	for _, n := range []int64{0, 512, 1 << 10, 3 << 29, 2 << 30} {
		s := FormatByteSize(n)
		back, err := ParseByteSize(s)
		if err != nil || (n >= 1<<10 && back == 0) {
			t.Fatalf("FormatByteSize(%d) = %q does not parse back: %v", n, s, err)
		}
	}
}

// censusDetector trains the small model the census tests drive: LSTM-16
// on the embedded corpus, with the routing vote cut to 5 actions so
// short sessions freeze their route — the compaction precondition —
// within their lives. Shared across tests (training under -race is the
// expensive part).
var (
	censusDetOnce sync.Once
	censusDet     *Detector
	censusDetErr  error
)

func censusDetector(t *testing.T) *Detector {
	t.Helper()
	censusDetOnce.Do(func() {
		c, err := corpus.Load()
		if err != nil {
			censusDetErr = err
			return
		}
		vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
		if err != nil {
			censusDetErr = err
			return
		}
		cfg := ScaledConfig(vocab.Size(), 13, 16, 1, 0)
		cfg.LM.Trainer.LearningRate = 0.01
		cfg.LM.Network.DropoutRate = 0
		cfg.RouteVoteActions = 5
		censusDet, censusDetErr = TrainDetector(cfg, vocab, c.ByCluster(), nil)
	})
	if censusDetErr != nil {
		t.Fatalf("train census detector: %v", censusDetErr)
	}
	return censusDet
}

// censusScripts returns the action scripts of the corpus sessions of
// one kind, each cycled or cut to exactly n actions.
func censusScripts(t *testing.T, kind string, n int) [][]string {
	t.Helper()
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, s := range c.Sessions {
		if s.Kind != kind || len(s.Actions) == 0 {
			continue
		}
		script := make([]string, n)
		for k := range script {
			script[k] = s.Actions[k%len(s.Actions)]
		}
		out = append(out, script)
	}
	if len(out) == 0 {
		t.Fatalf("corpus has no %s sessions", kind)
	}
	return out
}

// censusFeeder submits round-robin session traffic in 256-event
// SubmitTokens chunks with monotonically increasing event times.
type censusFeeder struct {
	t     *testing.T
	eng   *Engine
	ctx   context.Context
	batch []actionlog.Event
	seq   int
}

// play submits sessions prefix-[from,to): action k of every session
// before action k+1 of any, session i playing scripts[i mod len].
func (f *censusFeeder) play(prefix string, from, to int, scripts [][]string) {
	f.t.Helper()
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	for k := range scripts[0] {
		for i := from; i < to; i++ {
			id := fmt.Sprintf("%s-%07d", prefix, i)
			f.batch = append(f.batch, actionlog.Event{
				Time: base.Add(time.Duration(f.seq) * time.Millisecond), User: id, SessionID: id,
				Action: scripts[i%len(scripts)][k],
			})
			f.seq++
			if len(f.batch) == 256 {
				f.flush()
			}
		}
	}
	f.flush()
	if err := f.eng.Drain(f.ctx); err != nil {
		f.t.Fatal(err)
	}
}

func (f *censusFeeder) flush() {
	f.t.Helper()
	if len(f.batch) == 0 {
		return
	}
	if err := submitEvents(f.ctx, f.eng, f.batch, nil); err != nil {
		f.t.Fatal(err)
	}
	f.batch = f.batch[:0]
}

// touch submits one more action to every stride-th session of
// prefix-[0,n) and returns how many sessions it touched.
func (f *censusFeeder) touch(prefix string, n, stride int, scripts [][]string) int {
	f.t.Helper()
	touched := 0
	for i := 0; i < n; i += stride {
		f.play(prefix, i, i+1, [][]string{scripts[i%len(scripts)][:1]})
		touched++
	}
	return touched
}

// TestEngineFlashCrowdShedAtCap fills an engine to exactly MaxSessions
// with compacted sessions, then drives a surge of brand-new sessions
// replaying the corpus's benign flash-crowd traffic. Every surge event
// must be refused at admission, no alarm may be raised during the
// surge or attributed to shedding, and the residents must keep
// serving: touched afterwards, each one rehydrates. The floor alarms on
// every scored action, so a surge event that got past admission would
// also show up as an alarm.
func TestEngineFlashCrowdShedAtCap(t *testing.T) {
	const residents, actions, surge = 600, 8, 300
	mcfg := DefaultMonitorConfig()
	mcfg.LikelihoodFloor = 1.0
	mcfg.WarmupActions = 1
	eng, err := NewEngine(censusDetector(t), EngineConfig{Shards: 2, MaxSessions: residents, Monitor: mcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	f := &censusFeeder{t: t, eng: eng, ctx: ctx}
	normal := censusScripts(t, corpus.KindProfile, actions)
	f.play("res", 0, residents, normal)
	eng.Compact()
	before := eng.Stats()
	if before.SessionsLive != residents || before.SessionsCompacted != residents || before.ShedEvents != 0 {
		t.Fatalf("fill: %d resident, %d compacted, %d shed events; want %d, %d, 0",
			before.SessionsLive, before.SessionsCompacted, before.ShedEvents, residents, residents)
	}
	if before.AlarmsRaised == 0 {
		t.Fatal("the fill raised no alarms: the floor is not live, so the surge's zero alarms would prove nothing")
	}

	flash := censusScripts(t, corpus.KindFlashCrowd, actions)
	f.play("flash", 0, surge, flash)
	after := eng.Stats()
	if shed, want := after.ShedEvents-before.ShedEvents, uint64(surge*actions); shed != want {
		t.Fatalf("shed %d surge events, want all %d refused at the cap", shed, want)
	}
	if alarms := after.AlarmsRaised - before.AlarmsRaised; alarms != 0 {
		t.Fatalf("the surge raised %d alarms, want 0: refused sessions are never scored", alarms)
	}
	if after.AlarmsShed != 0 {
		t.Fatalf("%d alarms attributed to shedding, want 0", after.AlarmsShed)
	}
	if after.SessionsLive != residents {
		t.Fatalf("%d resident sessions after the surge, want the %d residents", after.SessionsLive, residents)
	}

	touched := f.touch("res", residents, 10, normal)
	if got := eng.Stats().Rehydrations - after.Rehydrations; got != uint64(touched) {
		t.Fatalf("touched %d residents after the surge, %d rehydrated", touched, got)
	}
}

// settledHeap returns the live heap after two forced collections, so
// garbage awaiting the next cycle is not counted.
func settledHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEngineCompactedCensusHeapCeiling holds a census of short LSTM-16
// sessions, compacted between cohorts, and bounds what each one costs
// on the settled heap. No session may be shed under the (roomy) memory
// budget, every session must end compacted, and every touched session
// must rehydrate.
//
// The ceiling: this 10k census measures ~885 B per session (linux/amd64,
// Go 1.24), the same as the live census of frozen LSTM-16 sessions,
// since a compacted session is its frozen monitor; the 2 KiB ceiling
// leaves ~2x headroom.
func TestEngineCompactedCensusHeapCeiling(t *testing.T) {
	const sessions, actions, cohort = 10000, 8, 2048
	const ceiling = 2048 // bytes per session
	det := censusDetector(t)
	scripts := censusScripts(t, corpus.KindProfile, actions)
	heap0 := settledHeap()
	eng, err := NewEngine(det, EngineConfig{Shards: 2, MemBudget: 256 << 20, Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	f := &censusFeeder{t: t, eng: eng, ctx: ctx}
	for off := 0; off < sessions; off += cohort {
		f.play("census", off, min(off+cohort, sessions), scripts)
		eng.Compact()
	}
	st := eng.Stats()
	perSession := float64(settledHeap()-heap0) / sessions
	t.Logf("settled heap %.0f B/session over %d compacted sessions (engine accounts %d B/session)",
		perSession, st.SessionsCompacted, st.MemBytes/sessions)
	if st.SessionsLive != sessions || st.SessionsCompacted != sessions {
		t.Fatalf("%d resident, %d compacted; want all %d", st.SessionsLive, st.SessionsCompacted, sessions)
	}
	if shed := st.ShedSessions + st.ShedEvents + st.ShedEvictions + st.AlarmsShed; shed != 0 {
		t.Fatalf("shed %d under a roomy budget, want 0: %+v", shed, st)
	}
	if perSession > ceiling {
		t.Fatalf("settled heap %.0f B per compacted session, over the %d B ceiling", perSession, ceiling)
	}
	touched := f.touch("census", sessions, 100, scripts)
	if got := eng.Stats().Rehydrations; got != uint64(touched) {
		t.Fatalf("touched %d compacted sessions, %d rehydrated", touched, got)
	}
}

// TestEngineLiveCensusHeapCeiling holds a census of live n-gram sessions,
// never compacted, once mid-vote (8 actions) and once past the vote
// freeze (20 actions). A voting session holds its vote state and its
// vote leader's stream; a frozen one only the winner's stream.
//
// The ceilings: 10k sessions measure ~1,030 B (voting) and ~680 B
// (frozen) per session on the settled heap (linux/amd64, Go 1.24).
// Voting sessions that kept a stream for every cluster that had led the
// vote, each with its own catch-up counter, measured 1,457 B settled and
// 1,344 B accounted; the voting census's 1,280 B ceiling fails that.
// Streams that allocate their vocab-sized predictive buffer up front
// (the likelihood-only serving path never reads it), with monitors that
// keep their vote state past the freeze, measured 6,706 and 7,301 B;
// the 2 KiB ceiling fails either.
func TestEngineLiveCensusHeapCeiling(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	t.Run("voting", func(t *testing.T) { liveCensus(t, det, 8, 1280) })
	t.Run("frozen", func(t *testing.T) { liveCensus(t, det, 20, 2048) })
}

// TestEngineLiveLSTMCensusHeapCeiling is the same census for LSTM-16
// sessions past the vote freeze. A live LSTM stream is its (H, C) and a
// primed flag — the next prediction is computed from H when the next
// action arrives — so a session needs no compaction to fit the ceiling.
// 10k sessions measure ~880 B per session on the settled heap and 780 B
// accounted (linux/amd64, Go 1.24); streams that carried their own step
// scratch and an eagerly computed next distribution measured ~7,800 B
// and 6,956 B.
func TestEngineLiveLSTMCensusHeapCeiling(t *testing.T) {
	liveCensus(t, censusDetector(t), 8, 2048)
}

// liveCensus plays 10k live sessions of det for actions actions each,
// never compacted, and bounds what each costs on the settled heap and in
// the engine's accounting at ceiling bytes. Sessions past their vote are
// then compacted, which must not change the accounting.
func liveCensus(t *testing.T, det *Detector, actions int, ceiling int64) {
	const sessions = 10000
	kind := "frozen"
	wantVoting, wantFrozen := 0, sessions
	if actions < det.cfg.RouteVoteActions {
		kind, wantVoting, wantFrozen = "voting", sessions, 0
	}
	scripts := censusScripts(t, corpus.KindProfile, actions)
	heap0 := settledHeap()
	eng, err := NewEngine(det, EngineConfig{Shards: 2, Monitor: DefaultMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	f := &censusFeeder{t: t, eng: eng, ctx: ctx}
	f.play("live", 0, sessions, scripts)
	st := eng.Stats()
	perSession := float64(settledHeap()-heap0) / sessions
	accounted := st.MemBytes / sessions
	t.Logf("settled heap %.0f B/session over %d live %s sessions (engine accounts %d B/session)",
		perSession, st.SessionsLive, kind, accounted)
	voting, frozen, compacted := memRecount(t, eng)
	if voting != wantVoting || frozen != wantFrozen || compacted != 0 {
		t.Fatalf("%d voting, %d frozen, %d compacted sessions; want all %d %s", voting, frozen, compacted, sessions, kind)
	}
	if perSession > float64(ceiling) || accounted > ceiling {
		t.Fatalf("%.0f B per live %s session on the settled heap, %d B accounted; ceiling %d B",
			perSession, kind, accounted, ceiling)
	}
	if wantFrozen == 0 {
		return
	}
	// A frozen session is its own snapshot: compacting all of them moves
	// every one to the cold list and leaves the accounted bytes as they
	// were.
	eng.Compact()
	if got := eng.memBytes(); got != st.MemBytes {
		t.Fatalf("compacting %d frozen sessions moved MemBytes from %d to %d", sessions, st.MemBytes, got)
	}
	if voting, frozen, compacted = memRecount(t, eng); compacted != sessions {
		t.Fatalf("after Compact: %d voting, %d frozen, %d compacted sessions; want all %d compacted", voting, frozen, compacted, sessions)
	}
}
