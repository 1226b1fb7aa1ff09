//go:build linux

package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/nn"
	"misusedetect/internal/ocsvm"
	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

// The per-layer numbers come from the benchmark's own clocks around the
// repository's public functions, in-process, over the head of the same
// stream the daemon is driven with: the daemon is package main and can
// only be measured from outside. Two passes share one event subset:
//
//   - enginePass submits it to a real core.Engine (2 shards, one
//     submitter) and yields the core.engine.* numbers;
//   - replica walks it on one goroutine through the calls a shard makes —
//     InternBytes, NewSessionMonitor, StageToken, scorer.AdvanceBatch,
//     FinishToken, Compact/Rehydrate — with a span around each, and
//     replays the monitor's OC-SVM call pattern on the public ocsvm API
//     to split routing out of StageToken.

// traceResidents is how many of the resident workload's sessions the
// in-process passes keep: filling all 45,000 serially would cost more
// than the wire run itself.
const traceResidents = 5000

// waveSize is the replica's wave: as many events of distinct sessions
// as one engine ScoreBatch chunk advances together.
const waveSize = 64

// subset selects the stream positions the in-process passes replay.
type subset struct {
	fill  []int32 // replayed first, unmeasured (resident warm-up)
	timed []int32 // measured
	// cycle > 0 is the resident round length: every cycle timed events
	// each session has been touched once and is compacted again.
	cycle int
}

// traceSubset picks the replica's events, or with forEngine the engine
// pass's. They differ only for the long-session workload: the replica
// takes whole sessions (the head of a lockstep stream is all routing
// vote), while the engine takes the whole stream, because how many
// streams a shard can advance in one fused step depends on how many
// sessions are in flight at once.
func traceSubset(sp *spec, st *stream, forEngine bool) subset {
	var sub subset
	keep := func(e event) bool { return true }
	limit := sp.traceEvents
	switch {
	case sp.residents > 0:
		sub.cycle = min(traceResidents, sp.residents)
		keep = func(e event) bool { return int(e.sess) < sub.cycle }
	case sp.sessionLen > 0 && forEngine:
		limit = len(st.evs)
	case sp.sessionLen > 0:
		whole := sp.traceEvents / sp.sessionLen
		keep = func(e event) bool { return int(e.sess) < whole }
	}
	for i, e := range st.evs {
		if !keep(e) {
			continue
		}
		if i < st.fill {
			sub.fill = append(sub.fill, int32(i))
		} else if len(sub.timed) < limit {
			sub.timed = append(sub.timed, int32(i))
		}
	}
	return sub
}

// replicaOut is what the single-goroutine replica counted.
type replicaOut struct {
	events, voting, alarms, sessions, unknown int
	compactions, rehydrations                 int
	snapshotBytes                             int64
	wall                                      time.Duration
}

type replicaSession struct {
	mon   *core.SessionMonitor
	snap  *core.SessionSnapshot
	route *ocsvm.PrefixStream
	mark  int // wave that last staged the session
}

type stagedEvent struct {
	sess int32
	pos  int32
	tok  int
	sc   scorer.Scorer
	st   scorer.Stream
	lik  float64
}

// replica replays the subset through the monitor API the way a shard
// does, one wave at a time. With tr nil it records no spans (the
// untraced twin that prices the tracing itself).
func replica(sp *spec, st *stream, det *core.Detector, mcfg core.MonitorConfig, sub subset, tr *tracer) (*replicaOut, error) {
	r := &replicaRun{
		sp: sp, st: st, det: det,
		interner: actionlog.NewInterner(det.Vocabulary()),
		sessions: make([]replicaSession, len(st.sessions)),
		vote:     det.Config().RouteVoteActions,
		mcfg:     mcfg,
	}
	r.names = make([][]byte, len(st.names))
	for i, n := range st.names {
		r.names[i] = []byte(n)
	}
	if err := r.run(sub.fill, nil); err != nil {
		return nil, err
	}
	r.out = replicaOut{}
	runtime.GC() // both twins start from a collected heap
	t0 := time.Now()
	if err := r.run(sub.timed, tr); err != nil {
		return nil, err
	}
	r.out.wall = time.Since(t0)
	return &r.out, nil
}

type replicaRun struct {
	sp       *spec
	st       *stream
	det      *core.Detector
	interner *actionlog.Interner
	names    [][]byte
	sessions []replicaSession
	vote     int
	mcfg     core.MonitorConfig
	wave     []stagedEvent
	waveID   int
	out      replicaOut

	streams []scorer.Stream
	actions []int
	liks    []float64
}

func (r *replicaRun) run(indices []int32, tr *tracer) error {
	for from := 0; from < len(indices); {
		// A wave holds each session at most once, like a shard's.
		r.waveID++
		to := from
		for to < len(indices) && to-from < waveSize {
			s := &r.sessions[r.st.evs[indices[to]].sess]
			if s.mark == r.waveID {
				break
			}
			s.mark = r.waveID
			to++
		}
		if err := r.runWave(indices[from:to], tr); err != nil {
			return err
		}
		from = to
	}
	return nil
}

func (r *replicaRun) runWave(indices []int32, tr *tracer) error {
	memoryPlane := r.sp.residents > 0
	root := tr.open("core.engine.wave", "core.engine", -1, r.waveID)
	r.wave = r.wave[:0]

	sp := tr.open("actionlog.InternBytes", "actionlog", root, r.waveID)
	for _, i := range indices {
		e := r.st.evs[i]
		tok := r.interner.InternBytes(r.names[r.st.sessions[e.sess].actions[e.pos]])
		if tok < 0 {
			r.out.unknown++
			continue
		}
		r.wave = append(r.wave, stagedEvent{sess: e.sess, pos: e.pos, tok: int(tok)})
	}
	tr.shut(sp)

	sp = tr.open("core.monitor.NewSessionMonitor", "core.monitor", root, r.waveID)
	for k := range r.wave {
		s := &r.sessions[r.wave[k].sess]
		if s.mon == nil && s.snap == nil {
			mon, err := r.det.NewSessionMonitor(r.mcfg)
			if err != nil {
				return err
			}
			s.mon = mon
			r.out.sessions++
		}
	}
	tr.shut(sp)

	if memoryPlane {
		sp = tr.open("core.compact.Rehydrate", "core.compact", root, r.waveID)
		for k := range r.wave {
			s := &r.sessions[r.wave[k].sess]
			if s.snap != nil {
				mon, err := s.snap.Rehydrate()
				if err != nil {
					return err
				}
				s.mon, s.snap = mon, nil
				r.out.rehydrations++
			}
		}
		tr.shut(sp)
	}

	stage := tr.open("core.monitor.StageToken", "core.monitor", root, r.waveID)
	for k := range r.wave {
		w := &r.wave[k]
		sc, st, err := r.sessions[w.sess].mon.StageToken(w.tok)
		if err != nil {
			return err
		}
		w.sc, w.st = sc, st
	}
	tr.shut(stage)

	// Advance the staged streams grouped by sequence model, first-seen
	// order, as flushWave does.
	for k := range r.wave {
		if r.wave[k].sc == nil {
			continue
		}
		sc := r.wave[k].sc
		r.streams, r.actions, r.liks = r.streams[:0], r.actions[:0], r.liks[:0]
		for j := k; j < len(r.wave); j++ {
			if r.wave[j].sc == sc {
				r.streams = append(r.streams, r.wave[j].st)
				r.actions = append(r.actions, r.wave[j].tok)
				r.liks = append(r.liks, 0)
			}
		}
		sp = tr.open("scorer.AdvanceBatch", "scorer", root, r.waveID)
		err := scorer.AdvanceBatch(sc, r.streams, r.actions, r.liks)
		tr.shut(sp)
		if err != nil {
			return err
		}
		n := 0
		for j := k; j < len(r.wave); j++ {
			if r.wave[j].sc == sc {
				r.wave[j].lik, r.wave[j].sc = r.liks[n], nil
				n++
			}
		}
	}

	sp = tr.open("core.monitor.FinishToken", "core.monitor", root, r.waveID)
	for k := range r.wave {
		w := &r.wave[k]
		step := r.sessions[w.sess].mon.FinishToken(w.tok, w.lik)
		r.out.alarms += len(step.Alarms)
	}
	tr.shut(sp)
	r.out.events += len(r.wave)

	if memoryPlane {
		// The resident cycle is far longer than -compact-after, so in
		// the daemon every session is a snapshot again before its next
		// touch; the replica compacts right after the touch.
		sp = tr.open("core.compact.Compact", "core.compact", root, r.waveID)
		for k := range r.wave {
			s := &r.sessions[r.wave[k].sess]
			if s.mon.Compactable() {
				snap, err := s.mon.Compact()
				if err != nil {
					return err
				}
				s.mon, s.snap = nil, snap
				r.out.compactions++
				r.out.snapshotBytes += int64(snap.MemSize())
			}
		}
		tr.shut(sp)
	}
	tr.shut(root)

	// The OC-SVM replica: the routing vote StageToken just ran inside
	// the monitor, repeated on the public API with the same inputs. It
	// runs outside every span; its duration is then booked as a child at
	// the head of the StageToken span, which leaves that span's self
	// time as the monitor's own share.
	t0 := time.Now()
	for k := range r.wave {
		w := &r.wave[k]
		s := &r.sessions[w.sess]
		if int(w.pos) >= r.vote {
			s.route = nil // the vote is frozen; the monitor never routes again
			continue
		}
		if s.route == nil {
			s.route = r.det.Featurizer().Stream()
		}
		x, err := s.route.Observe(w.tok)
		if err != nil {
			return err
		}
		support := s.route.Support()
		for c := range r.det.Clusters() {
			if _, err := r.det.Clusters()[c].Router.ScoreSparse(x, support); err != nil {
				return err
			}
		}
		r.out.voting++
	}
	d := time.Since(t0)
	if tr != nil && stage >= 0 {
		st := tr.spans[stage]
		tr.add(span{Name: "ocsvm.route", Layer: "ocsvm", Start: st.Start, End: st.Start.Add(min(d, st.End.Sub(st.Start))), Parent: stage, Request: r.waveID})
	}
	return nil
}

// engineOut is what the in-process engine pass measured.
type engineOut struct {
	events     int
	wall       time.Duration // first submit -> drained
	cpu        time.Duration // this process, over wall
	submit     time.Duration // total time inside SubmitTokens
	calls      []float64     // per SubmitTokens call, microseconds
	drainWait  time.Duration // backlog left at the last submit
	allocs     uint64
	compactAll time.Duration // one Engine.Compact over everything resident
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// enginePass submits the subset to a fresh in-process engine in the
// workload's write units and measures the submit path and the drain.
func enginePass(sp *spec, st *stream, det *core.Detector, mcfg core.MonitorConfig, sub subset) (*engineOut, error) {
	engine, err := core.NewEngine(det, core.EngineConfig{Shards: daemonShards, Monitor: mcfg})
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	ctx := context.Background()
	tokenize := func(indices []int32) []core.BatchEvent {
		out := make([]core.BatchEvent, len(indices))
		for k, i := range indices {
			ev := st.logEvent(int(i))
			out[k] = core.BatchEvent{Tok: engine.Interner().Intern(ev.Action)}
			ev.Action = ""
			out[k].Ev = ev
		}
		return out
	}
	fill, timed := tokenize(sub.fill), tokenize(sub.timed)
	for off := 0; off < len(fill); off += waveSize {
		if err := engine.SubmitTokens(ctx, fill[off:min(off+waveSize, len(fill))], nil); err != nil {
			return nil, err
		}
	}
	if err := engine.Drain(ctx); err != nil {
		return nil, err
	}
	out := &engineOut{events: len(timed), calls: make([]float64, 0, len(timed)/sp.frame+1)}
	if sub.cycle > 0 {
		t0 := time.Now()
		engine.Compact()
		out.compactAll = time.Since(t0)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu0 := ms.Mallocs, selfCPU()
	t0 := time.Now()
	nextCompact := sub.cycle
	for off := 0; off < len(timed); off += sp.frame {
		if sub.cycle > 0 && off >= nextCompact {
			// Every resident has been touched once more: compact them
			// all again, the sweep's work in the daemon.
			engine.Compact()
			nextCompact += sub.cycle
		}
		s0 := time.Now()
		if err := engine.SubmitTokens(ctx, timed[off:min(off+sp.frame, len(timed))], nil); err != nil {
			return nil, err
		}
		d := time.Since(s0)
		out.submit += d
		out.calls = append(out.calls, us(d))
	}
	d0 := time.Now()
	if err := engine.Drain(ctx); err != nil {
		return nil, err
	}
	out.drainWait = time.Since(d0)
	out.wall = time.Since(t0)
	out.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms)
	out.allocs = ms.Mallocs - mallocs
	if sub.cycle == 0 {
		t0 := time.Now()
		engine.Compact()
		out.compactAll = time.Since(t0)
	}
	return out, nil
}

// microOut holds the kernel-level measurements of the sequence-model
// layers; all zero when the workload's backend does not cross them.
type microOut struct {
	ngramLikelihoodNs float64
	lmB1Us, lmB64Us   float64 // per event
	nnStep64Us        float64 // per StepBatch call of 64 streams
	matMulNs          float64 // per MatMulNT call at the recurrent shape
	flopsPerEvent     float64 // computed from shapes
	weightBytesStep   float64 // computed from shapes
}

// perCall runs f repeatedly for about 150 ms and returns the mean time
// of one call.
func perCall(f func()) time.Duration {
	f() // warm caches and lazily grown scratch
	n, t0 := 0, time.Now()
	for time.Since(t0) < 150*time.Millisecond {
		f()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

// micro times the sequence-model kernels at this workload's shapes.
func micro(sp *spec, st *stream, det *core.Detector) (microOut, error) {
	var out microOut
	model := det.Clusters()[0]
	vocab := det.Vocabulary().Size()
	action := func(i int) int {
		e := st.evs[i%len(st.evs)]
		return int(st.sessions[e.sess].actions[e.pos])
	}
	if model.LM == nil {
		stream, i := model.Model.NewStream(), 0
		var err error
		d := perCall(func() {
			for k := 0; k < 1024 && err == nil; k++ {
				_, err = scorer.ObserveLikelihood(stream, action(i))
				i++
			}
		})
		if err != nil {
			return out, err
		}
		out.ngramLikelihoodNs = float64(d.Nanoseconds()) / 1024
		return out, nil
	}

	h := sp.hidden
	for _, n := range []int{1, waveSize} {
		streams := make([]scorer.Stream, n)
		actions, liks := make([]int, n), make([]float64, n)
		for k := range streams {
			streams[k] = model.LM.NewStream()
		}
		i := 0
		var err error
		d := perCall(func() {
			for k := range actions {
				actions[k] = action(i)
				i++
			}
			if err == nil {
				err = scorer.AdvanceBatch(model.LM, streams, actions, liks)
			}
		})
		if err != nil {
			return out, err
		}
		if n == 1 {
			out.lmB1Us = us(d)
		} else {
			out.lmB64Us = us(d) / float64(n)
		}
	}

	rng := rand.New(rand.NewSource(1))
	lstm, err := nn.NewLSTM(vocab, h, rng)
	if err != nil {
		return out, err
	}
	states, xs := make([]*nn.State, waveSize), make([]int, waveSize)
	for k := range states {
		states[k], xs[k] = lstm.NewState(), rng.Intn(vocab)
	}
	scratch := nn.NewBatchScratch()
	out.nnStep64Us = us(perCall(func() { lstm.StepBatch(states, xs, scratch) }))

	a, b, dst := tensor.NewMatrix(waveSize, h), tensor.NewMatrix(4*h, h), tensor.NewMatrix(waveSize, 4*h)
	tensor.GaussianInit(a, 1, rng)
	tensor.GaussianInit(b, 1, rng)
	out.matMulNs = float64(perCall(func() { tensor.MatMulNT(dst, a, b) }).Nanoseconds())

	// One step multiplies h by the 4H x H recurrent weights and the new
	// h by the V x H output weights; a fused step streams both matrices
	// (plus the gate bias) from memory once for the whole batch.
	out.flopsPerEvent = float64(2*4*h*h + 2*vocab*h)
	out.weightBytesStep = float64(8 * (4*h*h + vocab*h + 4*h))
	return out, nil
}

// ocsvmTrainSeconds retrains the per-cluster OC-SVMs alone, on the
// features and configuration core.TrainDetector uses, to split routing
// out of core.train_s.
func ocsvmTrainSeconds(cfg core.Config, det *core.Detector, train [][]*actionlog.Session) (float64, error) {
	t0 := time.Now()
	for ci, sessions := range train {
		encoded, err := det.Vocabulary().EncodeAll(actionlog.FilterMinLength(sessions, cfg.MinSessionLength))
		if err != nil {
			return 0, err
		}
		features, err := det.Featurizer().Corpus(encoded)
		if err != nil {
			return 0, err
		}
		oc := cfg.OCSVM
		oc.Seed += int64(ci)
		if _, err := ocsvm.Train(features, oc); err != nil {
			return 0, fmt.Errorf("ocsvm train replica, cluster %d: %w", ci, err)
		}
	}
	return time.Since(t0).Seconds(), nil
}
