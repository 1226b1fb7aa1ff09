//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"
	"time"

	"misusedetect/internal/core"
)

// The tests here run no daemon and train no model: they pin the
// benchmark's own arithmetic and the determinism of its inputs, and stay
// well under five seconds so the repository's tier-1 suite stays cheap.

func testFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// idle is the daemon's session idle expiry under the workload's flags:
// its -idle value, or misused's default of 30 minutes.
func (sp *spec) idle() time.Duration {
	for i, a := range sp.daemonArgs {
		if a == "-idle" {
			d, err := time.ParseDuration(sp.daemonArgs[i+1])
			if err != nil {
				panic(err)
			}
			return d
		}
	}
	return 30 * time.Minute
}

// wireHash digests the exact bytes a run would write.
func wireHash(sp *spec, st *stream) [sha256.Size]byte {
	h := sha256.New()
	for _, u := range st.encode(0, len(st.evs), sp.frame) {
		h.Write(u)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	fx := testFixture(t)
	for i := range specs {
		sp := &specs[i]
		a := wireHash(sp, buildStream(sp, fx, 7, 1))
		b := wireHash(sp, buildStream(sp, testFixture(t), 7, 1))
		c := wireHash(sp, buildStream(sp, fx, 8, 1))
		if a != b {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same stream", sp.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	fx := testFixture(t)
	for i := range specs {
		sp := &specs[i]
		st := buildStream(sp, fx, 3, 1)
		if got, want := len(st.evs)-st.fill, sp.timedEvents(1); got != want {
			t.Errorf("%s: %d timed events, want %d", sp.name, got, want)
		}
		// Every session's positions run 0, 1, 2, ... in stream order
		// (the alarm-to-event lookup relies on it), and its events are
		// never further apart than a quarter of the daemon's idle
		// expiry — even with the daemon four times slower than the
		// workload was sized for — or the daemon would evict a session
		// the serial reference keeps.
		perSecond := sp.rate
		if perSecond == 0 {
			perSecond = sp.nominal / 4
		}
		next := make([]int32, len(st.sessions))
		last := make([]int, len(st.sessions))
		maxGap := 0
		for i, e := range st.evs {
			if e.pos != next[e.sess] {
				t.Fatalf("%s: session %d at position %d, want %d", sp.name, e.sess, e.pos, next[e.sess])
			}
			if e.pos > 0 {
				maxGap = max(maxGap, i-last[e.sess])
			}
			next[e.sess], last[e.sess] = e.pos+1, i
		}
		gap := time.Duration(maxGap) * time.Second / time.Duration(perSecond)
		if gap >= sp.idle()/4 {
			t.Errorf("%s: a session waits %v between events, idle expiry is %v", sp.name, gap, sp.idle())
		}
		if sp.residents > 0 && st.fill != sp.residents*sp.fillLen {
			t.Errorf("%s: %d warm-up events, want %d", sp.name, st.fill, sp.residents*sp.fillLen)
		}
	}
}

func TestEncodeIsTheWireProtocol(t *testing.T) {
	fx := testFixture(t)
	sp := &specs[0]
	st := buildStream(sp, fx, 1, 1)
	// A frame decodes to the events the serial reference replays.
	var frame struct {
		Batch []struct {
			Time      time.Time `json:"time"`
			User      string    `json:"user"`
			SessionID string    `json:"session_id"`
			Action    string    `json:"action"`
		} `json:"batch"`
	}
	units := st.encode(0, 200, 64)
	if len(units) != 4 {
		t.Fatalf("200 events in frames of 64: %d units, want 4", len(units))
	}
	if err := json.Unmarshal(units[3], &frame); err != nil {
		t.Fatal(err)
	}
	if len(frame.Batch) != 200-3*64 {
		t.Fatalf("last frame has %d events, want %d", len(frame.Batch), 200-3*64)
	}
	for k, got := range frame.Batch {
		want := st.logEvent(3*64 + k)
		if !got.Time.Equal(want.Time) || got.User != want.User || got.SessionID != want.SessionID || got.Action != want.Action {
			t.Fatalf("event %d decodes to %+v, want %+v", 3*64+k, got, want)
		}
	}
	// A line is one bare event.
	line := st.encode(5, 6, 1)[0]
	if !bytes.HasPrefix(line, []byte(`{"time":"`)) || line[len(line)-1] != '\n' {
		t.Fatalf("line mode wrote %q", line)
	}
}

func TestUnitIndex(t *testing.T) {
	fx := testFixture(t)
	sp := &specs[3] // resident: has a warm-up
	st := buildStream(sp, fx, 1, 1)
	unitOf := st.unitIndex(sp.frame)
	if _, ok := unitOf(0, 0); ok {
		t.Error("a warm-up event was mapped to a timed write")
	}
	for _, i := range []int{st.fill, st.fill + 63, st.fill + 64, len(st.evs) - 1} {
		e := st.evs[i]
		k, ok := unitOf(e.sess, e.pos)
		if want := (i - st.fill) / sp.frame; !ok || k != want {
			t.Errorf("event %d: unit %d (found %v), want %d", i, k, ok, want)
		}
	}
	if _, ok := unitOf(0, 1<<20); ok {
		t.Error("a position beyond the session was mapped to a write")
	}
}

func TestParseAlarm(t *testing.T) {
	line, err := json.Marshal(&core.Alarm{
		Time: streamBase, SessionID: "s0000042", User: "user-0007",
		Kind: core.AlarmDownwardTrend.String(), Position: 17, Cluster: 3, ModelVersion: 1, Likelihood: 0.0125,
	})
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int32{"s0000042": 42}
	got, ok := parseAlarm(line, index)
	if want := (alarmKey{sess: 42, pos: 17, kind: kindDownwardTrend}); !ok || got != want {
		t.Fatalf("parsed %+v (ok %v), want %+v", got, ok, want)
	}
	for _, bad := range []string{`{"error":"unknown command"}`, `{"session_id":"nobody","kind":"low-likelihood","position":1}`, `garbage`} {
		if _, ok := parseAlarm([]byte(bad), index); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestDiffAlarms(t *testing.T) {
	st := &stream{sessions: []session{{id: "a"}, {id: "b"}}}
	want := []alarmKey{{0, 5, 1}, {0, 6, 1}, {1, 9, 2}}
	got := []alarmKey{{0, 5, 1}, {1, 9, 1}, {1, 9, 2}}
	missing, extra, first := diffAlarms(st, got, want)
	if missing != 1 || extra != 1 {
		t.Errorf("missing %d extra %d, want 1 and 1", missing, extra)
	}
	if first != "missing alarm: session a position 6 kind low-likelihood" {
		t.Errorf("first difference reported as %q", first)
	}
	if m, e, f := diffAlarms(st, want, want); m != 0 || e != 0 || f != "" {
		t.Errorf("equal multisets differ: %d %d %q", m, e, f)
	}
}

func TestHighestPercentile(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	for _, c := range []struct {
		n int
		p float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		p, v := highestPercentile(samples(c.n))
		if p != c.p {
			t.Errorf("%d samples: highest percentile %v, want %v", c.n, p, c.p)
		}
		if beyond := float64(c.n) - 1 - v; c.p > 0 && beyond < tailBeyond-1 {
			t.Errorf("%d samples: only %v samples beyond p%v", c.n, beyond, c.p*100)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two values %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread %v, want 1", s)
	}
}

func TestDisagree(t *testing.T) {
	if disagree(100, 104, 0.05, "lower") || !disagree(100, 106, 0.05, "lower") {
		t.Error("lower-is-better bound of 5 % misjudged 104 or 106 against 100")
	}
	if disagree(100, 96, 0.05, "higher") || !disagree(100, 94, 0.05, "higher") {
		t.Error("higher-is-better bound of 5 % misjudged 96 or 94 against 100")
	}
}

// layerSelf returns one layer's self time from a selfTimes table.
func layerSelf(table []layerTime, layer string) time.Duration {
	for _, lt := range table {
		if lt.layer == layer {
			return lt.self
		}
	}
	return 0
}

func TestSelfTimes(t *testing.T) {
	at := func(us int) time.Time { return streamBase.Add(time.Duration(us) * time.Microsecond) }
	spans := []span{
		{Name: "wave", Layer: "core.engine", Start: at(0), End: at(100), Parent: -1},
		{Name: "stage", Layer: "core.monitor", Start: at(10), End: at(60), Parent: 0},
		{Name: "route", Layer: "ocsvm", Start: at(10), End: at(40), Parent: 1},
		{Name: "finish", Layer: "core.monitor", Start: at(70), End: at(90), Parent: 0},
		// A child booked longer than its parent covers it entirely.
		{Name: "wave", Layer: "core.engine", Start: at(200), End: at(210), Parent: -1},
		{Name: "stage", Layer: "core.monitor", Start: at(200), End: at(215), Parent: 4},
	}
	table := selfTimes(spans)
	for layer, want := range map[string]time.Duration{
		"core.engine":  30 * time.Microsecond, // 100 - 50 - 20, then 10 - 10
		"core.monitor": 55 * time.Microsecond, // 50 - 30, 20, 15
		"ocsvm":        30 * time.Microsecond,
	} {
		if got := layerSelf(table, layer); got != want {
			t.Errorf("%s self time %v, want %v", layer, got, want)
		}
	}
	if got := layerSelf(table, "absent"); got != 0 {
		t.Errorf("absent layer has self time %v", got)
	}
}

func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, e := range bf.EndToEnd {
		if d := endToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end metric %d is %s/%s/%s, the program has %s/%s/%s", i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, e := range bf.PerLayer {
		if d := perLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d is %s/%s/%s, the program has %s/%s/%s", i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
}
