//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/harness"
)

// spec describes one workload: the model the daemon serves, the shape of
// the traffic, how it is offered, and how the daemon is started.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same line).
	why string

	// backend and hidden select the sequence model; trainCap bounds the
	// training sessions per cluster (0 = all) so the paper-size LSTM
	// trains in seconds — weight quality does not change its speed.
	backend  string
	hidden   int
	trainCap int
	// setups is how many times one run repeats the set-up (its median is
	// setup_s): five for the cheap models, whose set-up is mostly
	// process start and therefore noisy; once for the paper-size LSTM,
	// whose set-up is seconds of training and 170 MB of model files.
	setups int

	// frame is the number of events per client write: 64 sends
	// {"batch":[...]} frames, 1 sends one JSON event line per write.
	frame int
	// rate is the open-loop offered load in events/s; 0 means saturation
	// (closed loop: write as fast as the in-flight window allows).
	rate int
	// nominal sizes a saturation workload: events = nominal x seconds,
	// chosen so the window lasts about --seconds at the commit that
	// introduced the benchmark. Run length is an event count, never a
	// duration, so a faster program does the same work in less time.
	nominal int

	// slots is the number of sessions interleaved round-robin; a
	// finished session's slot takes the next session of the draw.
	slots int
	// sessionLen > 0 replaces the simulator-length sessions by long ones
	// of exactly this many actions (same-cluster holdout sessions
	// concatenated).
	sessionLen int
	// residents > 0 makes the workload the resident-set one: that many
	// sessions are first filled with fillLen actions each (untimed,
	// slots sessions at a time, so the daemon compacts the early ones
	// while the late ones are still arriving), and once all are
	// compacted the timed window touches them round-robin.
	residents int
	fillLen   int

	// daemonArgs are the extra misused flags.
	daemonArgs []string
	// traceEvents bounds the in-process traced replay.
	traceEvents int
}

// anomalyEvery makes one session in 50 (2 %) anomalous.
const anomalyEvery = 50

// specs lists the four workloads in reporting order.
var specs = []spec{
	{
		name:    "churn-ngram-frames",
		why:     "saturation, batch frames, ngram, short sessions: fast-parse, interning, admission/eviction and the OC-SVM routing vote do the work, the sequence model almost none",
		backend: "ngram", setups: 5,
		frame: 64, nominal: 350_000, slots: 2048,
		daemonArgs:  []string{"-idle", "1s"},
		traceEvents: 100_000,
	},
	{
		name:    "churn-ngram-lines-paced",
		why:     "the same traffic as one JSON line per write, open loop at 40k ev/s: the per-line parse and single-event submit path at a load where latency is fixed cost, not backlog",
		backend: "ngram", setups: 5,
		frame: 1, rate: 40_000, slots: 2048,
		daemonArgs:  []string{"-idle", "1s"},
		traceEvents: 100_000,
	},
	{
		name:    "seq-lstm256-frames",
		why:     "saturation, batch frames, LSTM-256, 448 sessions of 160 actions, 90 % of events past the vote freeze: lm/nn/tensor and wave batching dominate, parse and routing do little",
		backend: "lstm", hidden: 256, trainCap: 12, setups: 1,
		frame: 64, nominal: 8_960, slots: 448, sessionLen: 160,
		traceEvents: 20_000,
	},
	{
		name:    "resident-lstm16-paced",
		why:     "45k compacted LSTM-16 sessions touched round-robin at 30k ev/s: nearly every event rehydrates a snapshot while the sweep recompacts, a working set beyond the CPU caches",
		backend: "lstm", hidden: 16, setups: 5,
		frame: 64, rate: 30_000, slots: 2048, residents: 45_000, fillLen: 16,
		daemonArgs:  []string{"-compact-after", "200ms"},
		traceEvents: 100_000,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// timedEvents is the size of the measured window for a --seconds value.
func (sp *spec) timedEvents(seconds int) int {
	if sp.rate > 0 {
		return sp.rate * seconds
	}
	return sp.nominal * seconds
}

// corpusSeed fixes the simulated corpus and therefore the trained model:
// the corpus is the benchmark's fixture, and --seed draws the replayed
// stream from it (session order, anomaly placement, phases). Keeping the
// model out of the seed keeps alarm rate, support-vector count and
// session-length mix — each of which moves throughput by more than the
// regression bounds — identical from seed to seed.
const corpusSeed = 1

// corpusDivisor shrinks the paper-scale simulated recording to 600
// sessions, the smallest scale at which all 13 behavior clusters keep
// enough sessions to train and hold out.
const corpusDivisor = 25

// poolSession is one replayable session of the fixture, actions as
// vocabulary indices.
type poolSession struct {
	user    string
	cluster int
	actions []int32
}

// fixture is the simulated corpus every workload draws from.
type fixture struct {
	traffic   *harness.Traffic
	names     []string // action name by vocabulary index
	normals   []poolSession
	anomalies []poolSession
}

// newFixture generates the corpus with harness.SimTraffic. The campaign
// scenarios are left out: their sessions are meaningful only together,
// and the stream replicates sessions one by one.
func newFixture() (*fixture, error) {
	tr, err := harness.SimTraffic(harness.SimConfig{
		Seed: corpusSeed, Divisor: corpusDivisor,
		MimicrySessions: -1, LowSlowCampaigns: -1, CoordCampaigns: -1, FlashCrowds: -1,
	})
	if err != nil {
		return nil, err
	}
	fx := &fixture{traffic: tr, names: tr.Vocab.Actions()}
	for _, n := range fx.names {
		if !plain(n) {
			return nil, fmt.Errorf("action name %q needs JSON escaping", n)
		}
	}
	convert := func(ls []harness.LabeledSession) ([]poolSession, error) {
		out := make([]poolSession, 0, len(ls))
		for _, l := range ls {
			idx, err := tr.Vocab.Encode(l.Session)
			if err != nil {
				return nil, err
			}
			if !plain(l.Session.User) {
				return nil, fmt.Errorf("user %q needs JSON escaping", l.Session.User)
			}
			ps := poolSession{user: l.Session.User, cluster: l.Session.Cluster, actions: make([]int32, len(idx))}
			for i, a := range idx {
				ps.actions[i] = int32(a)
			}
			out = append(out, ps)
		}
		return out, nil
	}
	if fx.normals, err = convert(tr.Holdout); err != nil {
		return nil, err
	}
	if fx.anomalies, err = convert(tr.Anomalies); err != nil {
		return nil, err
	}
	return fx, nil
}

// plain reports whether s can be written between JSON quotes verbatim.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// trainSessions returns the per-cluster training split, capped at
// perCluster sessions each when perCluster > 0.
func (fx *fixture) trainSessions(perCluster int) [][]*actionlog.Session {
	out := make([][]*actionlog.Session, len(fx.traffic.Train))
	for i, c := range fx.traffic.Train {
		if perCluster > 0 && len(c) > perCluster {
			c = c[:perCluster]
		}
		out[i] = c
	}
	return out
}

// holdout returns the held-out normal sessions, the calibration set.
func (fx *fixture) holdout() []*actionlog.Session {
	out := make([]*actionlog.Session, len(fx.traffic.Holdout))
	for i, l := range fx.traffic.Holdout {
		out[i] = l.Session
	}
	return out
}

// long draws one session of exactly n actions by concatenating sessions
// of one behavior cluster (an operator working through several routines
// without logging out), or anomalous sessions when anomalous is set.
func (fx *fixture) long(rng *rand.Rand, n int, anomalous bool) poolSession {
	pool := fx.normals
	if anomalous {
		pool = fx.anomalies
	}
	first := pool[rng.Intn(len(pool))]
	out := poolSession{user: first.user, cluster: first.cluster, actions: make([]int32, 0, n)}
	for next := first; ; next = pool[rng.Intn(len(pool))] {
		if !anomalous && next.cluster != first.cluster {
			continue
		}
		out.actions = append(out.actions, next.actions...)
		if len(out.actions) >= n {
			out.actions = out.actions[:n]
			return out
		}
	}
}

// session is one replayed session of a stream.
type session struct {
	id      string
	user    string
	actions []int32
}

// event is one stream position: action pos of session sess.
type event struct {
	sess, pos int32
}

// stream is the deterministic event sequence of one run. The first fill
// events are the untimed warm-up (resident workload only).
type stream struct {
	names    []string
	sessions []session
	evs      []event
	fill     int
}

// buildStream draws the workload's stream for a seed and run length.
func buildStream(sp *spec, fx *fixture, seed int64, seconds int) *stream {
	rng := rand.New(rand.NewSource(seed))
	st := &stream{names: fx.names}
	timed := sp.timedEvents(seconds)
	draw := func(j int, n int) session {
		anomalous := j%anomalyEvery == anomalyEvery-1
		var ps poolSession
		switch {
		case n > 0:
			ps = fx.long(rng, n, anomalous)
		case anomalous:
			ps = fx.anomalies[rng.Intn(len(fx.anomalies))]
		default:
			ps = fx.normals[rng.Intn(len(fx.normals))]
		}
		return session{id: fmt.Sprintf("s%07d", j), user: ps.user, actions: ps.actions}
	}

	if sp.residents > 0 {
		// Every resident gets fillLen warm-up actions plus one action
		// per timed cycle.
		perSession := sp.fillLen + (timed+sp.residents-1)/sp.residents
		for j := 0; j < sp.residents; j++ {
			st.sessions = append(st.sessions, draw(j, perSession))
		}
		st.fill = sp.residents * sp.fillLen
		total := st.fill + timed
		st.evs = make([]event, 0, total)
		for lo := 0; lo < sp.residents; lo += sp.slots {
			for pos := 0; pos < sp.fillLen; pos++ {
				for j := lo; j < min(lo+sp.slots, sp.residents); j++ {
					st.evs = append(st.evs, event{sess: int32(j), pos: int32(pos)})
				}
			}
		}
		for pos := sp.fillLen; len(st.evs) < total; pos++ {
			for j := 0; j < sp.residents && len(st.evs) < total; j++ {
				st.evs = append(st.evs, event{sess: int32(j), pos: int32(pos)})
			}
		}
		return st
	}

	// Round-robin over the slots; a finished session's slot takes the
	// next session of the draw. Simulator-length sessions that open the
	// stream start at a random phase (their head is dropped), so sessions
	// end — and new ones are born — at a steady rate from the first
	// round on instead of in bursts. Long sessions run in lockstep: the
	// share of events inside the routing vote is then exactly
	// RouteVoteActions / sessionLen.
	type slot struct{ sess, pos int32 }
	slots := make([]slot, sp.slots)
	open := func(k int, stagger bool) {
		s := draw(len(st.sessions), sp.sessionLen)
		if stagger && len(s.actions) > 1 {
			s.actions = s.actions[rng.Intn(len(s.actions)):]
		}
		slots[k] = slot{sess: int32(len(st.sessions))}
		st.sessions = append(st.sessions, s)
	}
	for k := range slots {
		open(k, sp.sessionLen == 0)
	}
	st.evs = make([]event, 0, timed)
	for len(st.evs) < timed {
		for k := range slots {
			sl := &slots[k]
			st.evs = append(st.evs, event{sess: sl.sess, pos: sl.pos})
			if len(st.evs) == timed {
				break
			}
			if sl.pos++; int(sl.pos) == len(st.sessions[sl.sess].actions) {
				open(k, false)
			}
		}
	}
	return st
}

// streamBase is the timestamp of a stream's first event; event i is
// stamped i milliseconds later.
var streamBase = time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)

// sessionIndex maps each session's wire ID to its number in the stream.
func (st *stream) sessionIndex() map[string]int32 {
	index := make(map[string]int32, len(st.sessions))
	for i := range st.sessions {
		index[st.sessions[i].id] = int32(i)
	}
	return index
}

func (st *stream) action(e event) string { return st.names[st.sessions[e.sess].actions[e.pos]] }

// logEvent materializes stream position i as the event record the
// serial reference replays.
func (st *stream) logEvent(i int) actionlog.Event {
	e := st.evs[i]
	s := &st.sessions[e.sess]
	return actionlog.Event{
		Time:      streamBase.Add(time.Duration(i) * time.Millisecond),
		User:      s.user,
		SessionID: s.id,
		Action:    st.action(e),
	}
}

// appendEvent appends the wire JSON of stream position i.
func (st *stream) appendEvent(b []byte, i int) []byte {
	e := st.evs[i]
	s := &st.sessions[e.sess]
	b = append(b, `{"time":"`...)
	b = streamBase.Add(time.Duration(i)*time.Millisecond).AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","user":"`...)
	b = append(b, s.user...)
	b = append(b, `","session_id":"`...)
	b = append(b, s.id...)
	b = append(b, `","action":"`...)
	b = append(b, st.action(e)...)
	return append(b, `"}`...)
}

// encodeChunk is the allocation unit of the pre-encoded wire bytes.
const encodeChunk = 32 << 20

// encode pre-encodes stream positions [from, to) as client writes of
// frame events each — {"batch":[...]} lines, or bare event lines when
// frame is 1 — so the measured window spends client CPU on write calls
// only.
func (st *stream) encode(from, to, frame int) [][]byte {
	units := make([][]byte, 0, (to-from+frame-1)/frame)
	var chunk []byte
	for i := from; i < to; i += frame {
		end := min(i+frame, to)
		if cap(chunk)-len(chunk) < (end-i)*192+16 {
			chunk = make([]byte, 0, encodeChunk)
		}
		start := len(chunk)
		if frame == 1 {
			chunk = st.appendEvent(chunk, i)
		} else {
			chunk = append(chunk, `{"batch":[`...)
			for k := i; k < end; k++ {
				if k > i {
					chunk = append(chunk, ',')
				}
				chunk = st.appendEvent(chunk, k)
			}
			chunk = append(chunk, `]}`...)
		}
		chunk = append(chunk, '\n')
		units = append(units, chunk[start:len(chunk):len(chunk)])
	}
	return units
}
