//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"misusedetect/internal/core"
)

// maxLogLines is how many lines beyond its start lines the daemon may
// log in a run before the correctness gate fails: a healthy daemon on
// well-formed traffic logs none, and a per-event log line (the old wire
// bench's unknown-action path wrote 813,688 of them) is a defect.
const maxLogLines = 4

// options are the settings of one run.
type options struct {
	seed    int64
	seconds int
	// traced selects the per-layer run: the same wire replay with client
	// spans recorded, plus the in-process passes. End-to-end numbers
	// always come from an untraced run.
	traced bool
	bin    string // the misused binary
}

// report is the outcome of one run of one workload.
type report struct {
	sp       *spec
	res      result
	measured map[string]float64
	text     []string // human-readable findings, in order
}

func (r *report) notef(format string, args ...any) {
	r.text = append(r.text, fmt.Sprintf(format, args...))
}

// setUp is one complete set-up and its phase times in seconds.
type setUp struct {
	fx  *fixture
	cfg core.Config
	det *core.Detector
	// monitor holds the alarm thresholds calibrated for det, which the
	// daemon loads with -monitor.
	monitor core.MonitorConfig
	d       *daemon
	c       *client

	generate, train, save, start float64
}

func (s *setUp) total() float64 { return s.generate + s.train + s.save + s.start }

// discard stops the daemon of a set-up that is not used for the replay.
func (s *setUp) discard() {
	s.c.close()
	s.d.stop()
}

// calibrationFPR is the share of normal sessions allowed to alarm when
// the per-cluster floors are calibrated: internal/harness's default
// budget. Without calibration the barely trained models sit below the
// default floor on every other event (measured here: 0.16 alarms per
// event for ngram, 0.43 to 0.70 for the LSTMs), which benchmarks the
// alarm writer instead of the detector.
const calibrationFPR = 0.05

// setUpOnce generates the corpus, trains the workload's detector on the
// full simulator vocabulary with the ground-truth clusters, calibrates
// its alarm floors on the held-out normal sessions (what misusectl eval
// -thresholds does for a deployment), saves both to a fresh model
// directory, starts a fresh daemon on them and waits for the daemon's
// first status reply.
func setUpOnce(sp *spec, opt options) (*setUp, error) {
	s := &setUp{}
	t0 := time.Now()
	fx, err := newFixture()
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	s.fx = fx
	s.generate = time.Since(t0).Seconds()

	t0 = time.Now()
	train := fx.trainSessions(sp.trainCap)
	s.cfg = core.ScaledConfig(fx.traffic.Vocab.Size(), len(train), sp.hidden, 1, corpusSeed)
	s.cfg.Backend = sp.backend
	// The harness's training settings (internal/harness.trainDetector).
	s.cfg.LM.Trainer.LearningRate = 0.01
	s.cfg.LM.Network.DropoutRate = 0
	if s.det, err = core.TrainDetector(s.cfg, fx.traffic.Vocab, train, nil); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if s.monitor, err = s.det.CalibrateMonitorPerCluster(core.DefaultMonitorConfig(), fx.holdout(), calibrationFPR, 2); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	s.train = time.Since(t0).Seconds()

	t0 = time.Now()
	dir, err := tempDir("model-*")
	if err != nil {
		return nil, err
	}
	modelDir := filepath.Join(dir, "model")
	if err := s.det.Save(modelDir); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	thresholds := filepath.Join(dir, core.ThresholdsFile)
	if err := core.SaveMonitorConfig(thresholds, s.monitor); err != nil {
		return nil, fmt.Errorf("save thresholds: %w", err)
	}
	s.save = time.Since(t0).Seconds()

	t0 = time.Now()
	logPath := filepath.Join(outDir, "daemon-"+sp.name+".log")
	args := append([]string{"-monitor", thresholds}, sp.daemonArgs...)
	if s.d, err = startDaemon(opt.bin, modelDir, logPath, args); err != nil {
		return nil, err
	}
	conn, err := s.d.dial(60 * time.Second)
	if err != nil {
		s.d.stop()
		return nil, err
	}
	s.c = newClient(conn)
	if _, err := s.c.roundTrip(); err != nil {
		s.discard()
		return nil, fmt.Errorf("first status: %w", err)
	}
	s.start = time.Since(t0).Seconds()
	return s, nil
}

// runWorkload performs one run: set-ups, stream, wire replay, reference
// check, and — when traced — the in-process per-layer passes.
func runWorkload(sp *spec, opt options) (*report, error) {
	defer runCleanup()
	rep := &report{sp: sp, measured: map[string]float64{}}
	m := rep.measured

	// Set up sp.setups times; the last daemon serves the replay, the
	// others are stopped at once. setup_s is the median.
	var setups []*setUp
	for i := 0; i < sp.setups; i++ {
		if i > 0 {
			setups[i-1].discard()
			runCleanup()
		}
		s, err := setUpOnce(sp, opt)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	s := setups[len(setups)-1]
	medianOf := func(phase func(*setUp) float64) float64 {
		vs := make([]float64, len(setups))
		for i, s := range setups {
			vs[i] = phase(s)
		}
		return median(vs)
	}
	m["setup_s"] = medianOf((*setUp).total)
	m["logsim.generate_s"] = medianOf(func(s *setUp) float64 { return s.generate })
	m["core.train_s"] = medianOf(func(s *setUp) float64 { return s.train })
	m["core.store.save_s"] = medianOf(func(s *setUp) float64 { return s.save })
	m["misused.start_s"] = medianOf(func(s *setUp) float64 { return s.start })

	st := buildStream(sp, s.fx, opt.seed, opt.seconds)
	var tr *tracer
	if opt.traced {
		tr = &tracer{requests: (sp.traceEvents + sp.frame - 1) / sp.frame}
	}
	wire, err := replay(sp, st, s.c, s.d.cmd.Process.Pid, tr)
	logLines := s.d.stop()
	if err != nil {
		return nil, fmt.Errorf("replay: %w (daemon output in %s)", err, s.d.logPath)
	}

	// Correctness gate: the alarm multiset against the serial reference,
	// and the daemon's own failure counters.
	want, err := reference(st, s.det, s.monitor)
	if err != nil {
		return nil, err
	}
	got := make([]alarmKey, len(wire.alarms))
	for i, a := range wire.alarms {
		got[i] = a.alarmKey
	}
	sortKeys(got)
	missing, extra, firstDiff := diffAlarms(st, got, want)
	// A fresh daemon starts every counter at zero, so the final snapshot
	// covers the warm-up too. shed_sessions is not added: each refused
	// session is already counted through its shed events.
	after := wire.after
	counters := int(after.ScoreErrors + after.ShedEvents + after.ShedEvictions + after.AlarmsShed)
	failed := counters + missing + extra + wire.undecodable
	rate := float64(wire.events) / wire.window.Seconds()
	if sp.rate > 0 && rate < 0.98*float64(sp.rate) {
		// The daemon could not keep up with the offered load: every
		// event sent late missed the schedule it was timed against.
		failed += wire.late
		rep.notef("FAIL paced run reached %.0f ev/s of %d offered; %d events were sent more than %v late", rate, sp.rate, wire.late, lateAfter)
	}
	if firstDiff != "" {
		rep.notef("FAIL alarms differ from Detector.ReplaySerial: %d missing, %d extra; first: %s", missing, extra, firstDiff)
	}
	if wire.undecodable > 0 {
		rep.notef("FAIL %d undecodable reply lines; first: %s", wire.undecodable, wire.firstBad)
	}
	if counters > 0 {
		rep.notef("FAIL daemon counters: score_errors %d shed_events %d shed_sessions %d shed_evictions %d alarms_shed %d",
			after.ScoreErrors, after.ShedEvents, after.ShedSessions, after.ShedEvictions, after.AlarmsShed)
	}
	if logLines > maxLogLines {
		rep.notef("FAIL daemon logged %d lines (limit %d), see %s", logLines, maxLogLines, s.d.logPath)
		failed++
	}
	attempted := len(st.evs)
	rep.res = result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	rep.notef("events %d (+%d warm-up) in %d sessions; window %.3f s; alarms %d, all %d matching the serial reference: %v; failed_share %.6f",
		wire.events, st.fill, len(st.sessions), wire.window.Seconds(), len(got), len(want), firstDiff == "", float64(failed)/float64(attempted))

	// End-to-end metrics.
	lat := sortedCopy(wire.latency)
	m["events_per_s"] = rate
	m["alarm_latency_p50_us"] = quantile(lat, 0.50)
	m["cpu_us_per_event"] = us(wire.cpu) / float64(wire.events)
	m["rss_peak_mb"] = wire.rssPeak
	top, _ := highestPercentile(lat)
	rep.notef("alarm latency: %d samples, highest supported percentile p%g", len(lat), top*100)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no alarm in the timed window: the workload cannot measure alarm latency")
	}
	if !opt.traced {
		rep.res.Metrics = collect(endToEnd, m)
		return rep, nil
	}

	// Daemon-side per-layer numbers from the wire run.
	m["misused.alarm_latency_p99_us"] = quantile(lat, 0.99)
	m["misused.alarm_latency_p999_us"] = quantile(lat, 0.999)
	m["misused.alarm_latency_max_us"] = lat[len(lat)-1]
	m["misused.write_stall_p99_us"] = quantile(sortedCopy(wire.stall), 0.99)
	m["misused.status_rtt_p50_us"] = median(wire.statusRTT)
	m["misused.bytes_in_per_event"] = float64(wire.bytesIn) / float64(wire.events)
	m["misused.bytes_out_per_alarm"] = float64(wire.alarmBytes) / float64(max(len(wire.alarms), 1))
	m["misused.log_lines"] = float64(logLines)
	m["bench.generator_lag_p99_us"] = quantile(sortedCopy(wire.lag), 0.99)
	before := wire.before
	m["core.engine.events_per_batch"] = ratio(float64(after.EventsSubmitted-before.EventsSubmitted), float64(after.BatchesSubmitted-before.BatchesSubmitted))
	m["core.engine.sessions_created"] = float64(len(st.sessions))
	m["core.engine.evictions"] = float64(after.Evictions)
	m["core.engine.mem_bytes_per_session"] = ratio(float64(after.MemBytes), float64(after.SessionsLive))
	m["core.engine.fill_events_per_s"] = wire.fillRate
	m["core.compact.rehydrations_per_event"] = float64(after.Rehydrations-before.Rehydrations) / float64(wire.events)

	if err := tracedPasses(sp, st, s, tr, rep); err != nil {
		return nil, err
	}
	rep.res.Metrics = collect(perLayer, m)
	return rep, nil
}

// ratio is a/b, 0 when b is 0 (a count that did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPasses runs the in-process engine pass, the traced and untraced
// replicas, the kernel timings and the set-up extras, fills the
// remaining per-layer metrics, writes the trace file and appends the
// self-time table to the report.
func tracedPasses(sp *spec, st *stream, s *setUp, tr *tracer, rep *report) error {
	m := rep.measured
	eng, err := enginePass(sp, st, s.det, s.monitor, traceSubset(sp, st, true))
	if err != nil {
		return fmt.Errorf("engine pass: %w", err)
	}
	events := float64(eng.events)
	m["core.engine.events_per_s"] = events / eng.wall.Seconds()
	m["core.engine.cpu_us_per_event"] = us(eng.cpu) / events
	m["core.engine.submit_ns_per_event"] = float64(eng.submit.Nanoseconds()) / events
	m["core.engine.submit_p99_us"] = quantile(sortedCopy(eng.calls), 0.99)
	m["core.engine.drain_wait_ms"] = eng.drainWait.Seconds() * 1e3
	m["core.engine.allocs_per_event"] = float64(eng.allocs) / events
	m["core.compact.engine_compact_all_ms"] = eng.compactAll.Seconds() * 1e3
	// What the daemon spends per event outside the engine: socket read,
	// line scan, parse, alarm encode and write. Negative only if the
	// in-process engine were costlier than the whole daemon.
	m["misused.cpu_us_per_event"] = m["cpu_us_per_event"] - m["core.engine.cpu_us_per_event"]

	sub := traceSubset(sp, st, false)
	plain, err := replica(sp, st, s.det, s.monitor, sub, nil)
	if err != nil {
		return fmt.Errorf("untraced replica: %w", err)
	}
	traced, err := replica(sp, st, s.det, s.monitor, sub, tr)
	if err != nil {
		return fmt.Errorf("traced replica: %w", err)
	}
	m["bench.trace_overhead_share"] = (traced.wall - plain.wall).Seconds() / plain.wall.Seconds()

	n := float64(traced.events)
	total := func(name string) time.Duration { return spanTotal(tr.spans, name) }
	perEventNs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	route := total("ocsvm.route")
	m["actionlog.intern_ns_per_event"] = perEventNs(total("actionlog.InternBytes"))
	m["actionlog.intern_unknown_share"] = float64(traced.unknown) / float64(traced.events+traced.unknown)
	m["core.monitor.new_session_us"] = ratio(us(total("core.monitor.NewSessionMonitor")), float64(traced.sessions))
	m["core.monitor.stage_ns_per_event"] = perEventNs(total("core.monitor.StageToken") - route)
	m["core.monitor.finish_ns_per_event"] = perEventNs(total("core.monitor.FinishToken"))
	m["core.monitor.alarms_per_event"] = float64(traced.alarms) / n
	m["ocsvm.route_ns_per_event"] = perEventNs(route)
	m["ocsvm.voting_event_share"] = float64(traced.voting) / n
	m["scorer.advance_ns_per_event"] = perEventNs(total("scorer.AdvanceBatch"))
	m["core.compact.compact_us_per_session"] = ratio(us(total("core.compact.Compact")), float64(traced.compactions))
	m["core.compact.rehydrate_us_per_session"] = ratio(us(total("core.compact.Rehydrate")), float64(traced.rehydrations))
	m["core.compact.snapshot_bytes"] = ratio(float64(traced.snapshotBytes), float64(traced.compactions))

	mi, err := micro(sp, st, s.det)
	if err != nil {
		return fmt.Errorf("kernel timings: %w", err)
	}
	m["baseline.ngram.likelihood_ns"] = mi.ngramLikelihoodNs
	m["lm.advance_b1_us_per_event"] = mi.lmB1Us
	m["lm.advance_b64_us_per_event"] = mi.lmB64Us
	m["nn.step_batch64_us"] = mi.nnStep64Us
	m["tensor.matmul_nt_ns_per_call"] = mi.matMulNs
	m["tensor.matmul_flops_per_event"] = mi.flopsPerEvent
	m["tensor.weight_bytes_per_step"] = mi.weightBytesStep

	// Set-up extras, once each: the LDA clustering the benchmark skips
	// (it trains on the ground-truth clusters), the OC-SVM share of
	// training, and the verify + load a daemon start pays.
	train := s.fx.trainSessions(sp.trainCap)
	t0 := time.Now()
	if _, err := core.ClusterHistory(s.cfg, s.fx.traffic.Vocab, slices.Concat(train...)); err != nil {
		return fmt.Errorf("lda clustering: %w", err)
	}
	m["lda.cluster_s"] = time.Since(t0).Seconds()
	if m["ocsvm.train_s"], err = ocsvmTrainSeconds(s.cfg, s.det, train); err != nil {
		return err
	}
	m["lm.train_s"] = max(m["core.train_s"]-m["ocsvm.train_s"], 0)
	dir, err := tempDir("verify-*")
	if err != nil {
		return err
	}
	modelDir := filepath.Join(dir, "model")
	if err := s.det.Save(modelDir); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := core.VerifyArtifact(modelDir); err != nil {
		return err
	}
	if _, err := core.LoadDetector(modelDir); err != nil {
		return err
	}
	m["core.store.verify_load_s"] = time.Since(t0).Seconds()

	tracePath := filepath.Join(outDir, "trace-"+sp.name+".jsonl")
	if err := tr.write(tracePath); err != nil {
		return err
	}

	// The self-time table, in microseconds per event. The in-process
	// rows are span self times of the one-goroutine replica; the misused
	// row is daemon CPU minus in-process engine CPU (computed, since the
	// daemon cannot be traced from outside).
	rows := []layerTime{{layer: "misused (cpu, computed)", self: time.Duration(max(m["misused.cpu_us_per_event"], 0) * n * 1e3)}}
	for _, lt := range selfTimes(tr.spans) {
		if lt.layer != "client" {
			rows = append(rows, lt)
		}
	}
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	rep.notef("self time per layer over %d replica events (%d spans, %s):", traced.events, len(tr.spans), tracePath)
	for _, r := range rows {
		rep.notef("  %-26s %10.3f us/event %5.1f %%", r.layer, us(r.self)/n, 100*r.self.Seconds()/all.Seconds())
	}
	rep.notef("  scorer spans sit at the scorer seam and contain the backend (%s)", backendLayers(sp))
	return nil
}

func backendLayers(sp *spec) string {
	if sp.backend == "lstm" {
		return "lm, nn, tensor"
	}
	return "baseline"
}

// print writes the report: findings, every metric by name with its
// unit, and the contract's JSON object as the last line.
func (r *report) print(opt options) error {
	jsonLine, err := json.Marshal(&r.res)
	if err != nil {
		return fmt.Errorf("%s: encode result: %w", r.sp.name, err)
	}
	mode := "end-to-end (untraced)"
	defs := endToEnd
	if opt.traced {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("== %s seed %d seconds %d: %s\n", r.sp.name, opt.seed, opt.seconds, mode)
	for _, line := range r.text {
		fmt.Println(line)
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %16.4f %s\n", d.name, r.res.Metrics[d.name].Value, d.unit)
	}
	_, err = os.Stdout.Write(append(jsonLine, '\n'))
	return err
}

// failures lists the report's FAIL findings.
func (r *report) failures() []string {
	var out []string
	for _, line := range r.text {
		if strings.HasPrefix(line, "FAIL") {
			out = append(out, line)
		}
	}
	return out
}
