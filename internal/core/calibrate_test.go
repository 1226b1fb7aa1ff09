package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// serialMinimum is one validation session's weakest point as the serial
// oracle sees it.
type serialMinimum struct {
	cluster int
	min     float64
}

// serialMinima is the calibration reference: one alarm-free
// SessionMonitor per validation session, driven action by action on the
// calling goroutine, collecting each scored session's routed cluster and
// minimum post-warmup smoothed likelihood in input order.
func serialMinima(t *testing.T, d *Detector, base MonitorConfig, validation []*actionlog.Session) []serialMinimum {
	t.Helper()
	probe := base
	probe.LikelihoodFloor = 0
	probe.ClusterFloors = nil
	probe.TrendWindow = 0
	var out []serialMinimum
	for _, sess := range validation {
		if sess.Len() < d.cfg.MinSessionLength {
			continue
		}
		mon, err := d.NewSessionMonitor(probe)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sess.Actions {
			observeName(t, d, mon, a)
		}
		if mon.warmMin >= 0 {
			out = append(out, serialMinimum{cluster: mon.cluster, min: mon.warmMin})
		}
	}
	return out
}

// serialFloors derives CalibrateMonitorPerCluster's floors from the
// serial oracle's minima.
func serialFloors(d *Detector, minima []serialMinimum, targetFPR float64, minSessions int) (float64, []float64) {
	all := make([]float64, len(minima))
	byCluster := make([][]float64, d.ClusterCount())
	for i, m := range minima {
		all[i] = m.min
		byCluster[m.cluster] = append(byCluster[m.cluster], m.min)
	}
	global := floorQuantile(all, targetFPR)
	floors := make([]float64, d.ClusterCount())
	for c, mins := range byCluster {
		floors[c] = global
		if len(mins) >= minSessions {
			floors[c] = floorQuantile(mins, targetFPR)
		}
	}
	return global, floors
}

// calibrationHoldout is the corpus's sessions, anomalies included, with
// session 1 carrying session 0's ID (a live holdout repeats an ID after
// idle eviction) and a one-action session that calibration must skip.
func calibrationHoldout(t *testing.T) []*actionlog.Session {
	t.Helper()
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	holdout := c.ActionSessions()
	holdout[1].ID = holdout[0].ID
	short := holdout[2].Clone()
	short.ID, short.Actions = "short", short.Actions[:1]
	return append(holdout, short)
}

// TestCalibrateMatchesSerialOracle: calibration replays through the
// engine, and every session minimum and every floor it derives equals
// the serial monitor loop's bit for bit, on all three backends.
func TestCalibrateMatchesSerialOracle(t *testing.T) {
	holdout := calibrationHoldout(t)
	for _, tc := range []struct {
		name string
		det  func(*testing.T) *Detector
	}{
		{"lstm", func(t *testing.T) *Detector { return corpusDetector(t) }},
		{"ngram", func(t *testing.T) *Detector { return trainCorpusNGram(t, 11) }},
		{"hmm", func(t *testing.T) *Detector { return trainCorpusHMM(t, 11) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.det(t)
			base := DefaultMonitorConfig()
			want := serialMinima(t, d, base, holdout)
			// The engine must score the two sessions sharing an ID as two
			// sessions, in input order: keyed by the caller's ID, their
			// events would merge into one monitor.
			probe := base
			probe.LikelihoodFloor, probe.ClusterFloors, probe.TrendWindow = 0, nil, 0
			sums, err := d.ClassifySessions(probe, holdout)
			if err != nil {
				t.Fatal(err)
			}
			if len(sums) != len(holdout)-1 {
				t.Fatalf("%d summaries for %d sessions long enough to score", len(sums), len(holdout)-1)
			}
			if sums[0].SessionID != holdout[0].ID || sums[1].SessionID != holdout[0].ID {
				t.Fatalf("summaries 0 and 1 are %q and %q, want the shared ID %q twice", sums[0].SessionID, sums[1].SessionID, holdout[0].ID)
			}
			var got []serialMinimum
			for _, sum := range sums {
				if sum.MinSmoothed >= 0 {
					got = append(got, serialMinimum{cluster: sum.Cluster, min: sum.MinSmoothed})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("engine scored %d sessions past the warmup, serial %d", len(got), len(want))
			}
			for i := range want {
				if got[i].cluster != want[i].cluster || math.Float64bits(got[i].min) != math.Float64bits(want[i].min) {
					t.Fatalf("session minimum %d: engine %+v, serial %+v", i, got[i], want[i])
				}
			}
			for _, minSessions := range []int{2, 5} {
				cfg, err := d.CalibrateMonitorPerCluster(base, holdout, 0.05, minSessions)
				if err != nil {
					t.Fatal(err)
				}
				global, floors := serialFloors(d, want, 0.05, minSessions)
				if math.Float64bits(cfg.LikelihoodFloor) != math.Float64bits(global) {
					t.Fatalf("minSessions %d: global floor %v, serial %v", minSessions, cfg.LikelihoodFloor, global)
				}
				for c := range floors {
					if math.Float64bits(cfg.ClusterFloors[c]) != math.Float64bits(floors[c]) {
						t.Fatalf("minSessions %d: cluster %d floor %v, serial %v", minSessions, c, cfg.ClusterFloors[c], floors[c])
					}
				}
			}
			// An action outside the model vocabulary still fails
			// calibration.
			oov := holdout[3].Clone()
			oov.Actions = append(oov.Actions, "ActionNotInVocab")
			if _, err := d.CalibrateMonitorPerCluster(base, append(holdout[:3:3], oov), 0.05, 2); err == nil {
				t.Fatal("a validation action outside the vocabulary must fail calibration")
			}
		})
	}
}

// TestClassifySessions: fresh normal traffic classified under calibrated
// floors comes back in input order, one recorded summary per session
// long enough to score, with out-of-vocabulary actions counted and the
// bulk alarm-free.
func TestClassifySessions(t *testing.T) {
	det := trainCorpusNGram(t, 11)
	calibrated, err := det.CalibrateMonitorPerCluster(DefaultMonitorConfig(), calibrationHoldout(t), 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logsim.Generate(logsim.ScaledConfig(71, 120))
	if err != nil {
		t.Fatal(err)
	}
	sessions := actionlog.FilterMinLength(sim.Sessions, 2)[:30]
	for i, s := range sessions {
		sessions[i] = s.Clone()
		sessions[i].ID = fmt.Sprintf("cl-%s", s.ID)
	}
	// Splice an out-of-vocabulary action into the first session, and put
	// a one-action session in the middle, which is skipped.
	sessions[0].Actions = append(sessions[0].Actions, "ActionNotInVocab")
	short := sessions[1].Clone()
	short.ID, short.Actions = "short", short.Actions[:1]
	sessions = slices.Insert(sessions, 15, short)
	sums, err := det.ClassifySessions(calibrated, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 30 {
		t.Fatalf("classified %d sessions, want 30", len(sums))
	}
	if sums[0].Unknown != 1 {
		t.Fatalf("unknown count = %d, want 1", sums[0].Unknown)
	}
	alarmFree := 0
	for i, s := range sums {
		in := sessions[i]
		if i >= 15 {
			in = sessions[i+1]
		}
		if s.SessionID != in.ID || s.Observed == 0 || s.Session() == nil || s.Session().ID != in.ID {
			t.Fatalf("summary %d of %s: %+v", i, in.ID, s)
		}
		if s.Cluster < 0 || s.Cluster >= det.ClusterCount() {
			t.Fatalf("summary cluster %d out of range", s.Cluster)
		}
		if s.Alarms == 0 {
			alarmFree++
		}
	}
	// Calibration at a 5% FPR budget: the bulk of fresh normal traffic
	// must classify alarm-free, or the adaptation buffer would starve.
	if alarmFree < len(sums)/2 {
		t.Fatalf("only %d/%d sessions alarm-free under calibrated floors", alarmFree, len(sums))
	}
}
