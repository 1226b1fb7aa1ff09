package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"misusedetect/internal/actionlog"
)

// ClassifySessions replays recorded sessions through a one-shard engine
// over the detector, scoring under the given monitor configuration with
// session recording on, and returns the summaries the engine emits, in
// input order. It is the one way recorded sessions become summaries:
// threshold calibration, offline adaptation (misusectl adapt -once) and
// the experiments read these. Sessions shorter than the detector's
// MinSessionLength are skipped. The engine keys each session by its
// input position and the summary gets the caller's ID back, so two
// sessions sharing an ID (a live holdout reuses one after idle eviction)
// stay two sessions. One shard: the scoring never takes more than one
// core.
func (d *Detector) ClassifySessions(mcfg MonitorConfig, sessions []*actionlog.Session) ([]SessionSummary, error) {
	var live []*actionlog.Session
	for i, s := range sessions {
		if s.Len() >= d.cfg.MinSessionLength {
			live = append(live, &actionlog.Session{ID: strconv.Itoa(i), User: s.User, Start: s.Start, Actions: s.Actions})
		}
	}
	// The replay takes the sessions' actions round-robin, one position
	// at a time, so a wave holds one event of many sessions and the
	// fused advance batches across them. Only each session's own order
	// matters: sessions score independently. Every event carries its
	// session's start, which the summary reports.
	var events []actionlog.Event
	for k := 0; len(live) > 0; k++ {
		next := live[:0]
		for _, s := range live {
			events = append(events, actionlog.Event{Time: s.Start, User: s.User, SessionID: s.ID, Action: s.Actions[k]})
			if k+1 < s.Len() {
				next = append(next, s)
			}
		}
		live = next
	}
	sums := make([]SessionSummary, len(sessions))
	eng, err := NewEngine(d, EngineConfig{
		Shards:         1,
		Monitor:        mcfg,
		RecordSessions: true,
		// Runs on the one shard goroutine, which Close waits for.
		OnSessionEnd: func(sum SessionSummary) {
			i, _ := strconv.Atoi(sum.SessionID)
			sum.SessionID = sessions[i].ID
			sums[i] = sum
		},
	})
	if err != nil {
		return nil, err
	}
	_, err = eng.Replay(context.Background(), events)
	eng.Close()
	if err != nil {
		return nil, err
	}
	out := sums[:0]
	for i, s := range sessions {
		if s.Len() >= d.cfg.MinSessionLength {
			out = append(out, sums[i])
		}
	}
	return out, nil
}

// floorQuantile returns the targetFPR-quantile of the per-session minima:
// the floor below which roughly a targetFPR fraction of them fall.
func floorQuantile(minima []float64, targetFPR float64) float64 {
	sorted := append([]float64(nil), minima...)
	sort.Float64s(sorted)
	idx := int(targetFPR * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// CalibrateMonitorPerCluster calibrates one alarm floor per behavior
// cluster from the same false-positive budget: each cluster's floor is
// the targetFPR-quantile of the minima of the validation sessions routed
// to it, so a predictable cluster gets a tight floor and a noisy one a
// loose floor instead of sharing one compromise threshold. Clusters that
// attract fewer than minSessions validation sessions (default 2 when
// minSessions <= 0) fall back to the global quantile, which also becomes
// LikelihoodFloor for any cluster outside the slice.
// This replaces hand-tuned thresholds with the validation-split
// calibration a deployment needs (the paper leaves the alarm threshold to
// the operators).
//
// The validation sessions replay through ClassifySessions with alarms
// off; a session's minimum is its summary's MinSmoothed, and sessions
// that never scored past the warmup are skipped. A validation action
// outside the model vocabulary is an error.
func (d *Detector) CalibrateMonitorPerCluster(base MonitorConfig, validation []*actionlog.Session, targetFPR float64, minSessions int) (MonitorConfig, error) {
	if err := base.validate(); err != nil {
		return MonitorConfig{}, err
	}
	if targetFPR <= 0 || targetFPR >= 1 {
		return MonitorConfig{}, fmt.Errorf("core: target FPR %v outside (0,1)", targetFPR)
	}
	if minSessions <= 0 {
		minSessions = 2
	}
	probe := base
	probe.LikelihoodFloor = 0
	probe.ClusterFloors = nil
	probe.TrendWindow = 0
	sums, err := d.ClassifySessions(probe, validation)
	if err != nil {
		return MonitorConfig{}, err
	}
	var all []float64
	byCluster := make([][]float64, len(d.clusters))
	for _, sum := range sums {
		if sum.Unknown > 0 {
			return MonitorConfig{}, fmt.Errorf("core: calibrate on %s: %d actions outside the model vocabulary", sum.SessionID, sum.Unknown)
		}
		if sum.MinSmoothed < 0 {
			continue
		}
		all = append(all, sum.MinSmoothed)
		if sum.Cluster >= 0 && sum.Cluster < len(byCluster) {
			byCluster[sum.Cluster] = append(byCluster[sum.Cluster], sum.MinSmoothed)
		}
	}
	if len(all) == 0 {
		return MonitorConfig{}, fmt.Errorf("core: no usable validation sessions for calibration")
	}
	global := floorQuantile(all, targetFPR)
	out := base
	out.LikelihoodFloor = global
	out.ClusterFloors = make([]float64, len(d.clusters))
	for c, mins := range byCluster {
		if len(mins) < minSessions {
			out.ClusterFloors[c] = global
			continue
		}
		out.ClusterFloors[c] = floorQuantile(mins, targetFPR)
	}
	return out, nil
}
