package core

import (
	"fmt"
	"sort"

	"misusedetect/internal/actionlog"
)

// sessionMinimum is one validation session's weakest point: the routed
// behavior cluster and the minimum post-warmup smoothed likelihood.
type sessionMinimum struct {
	cluster int
	min     float64
}

// monitorMinima replays the validation sessions through alarm-disabled
// probe monitors and collects each session's minimum post-warmup smoothed
// likelihood plus its final routed cluster. Sessions too short to score
// past the warmup are skipped.
func (d *Detector) monitorMinima(base MonitorConfig, validation []*actionlog.Session) ([]sessionMinimum, error) {
	probe := base
	probe.LikelihoodFloor = 0
	probe.ClusterFloors = nil
	probe.TrendWindow = 0
	var out []sessionMinimum
	for _, sess := range validation {
		if sess.Len() < d.cfg.MinSessionLength {
			continue
		}
		mon, err := d.NewSessionMonitor(probe)
		if err != nil {
			return nil, err
		}
		for _, a := range sess.Actions {
			tok := d.Token(a)
			if tok < 0 {
				return nil, fmt.Errorf("core: calibrate on %s: unknown action %q", sess.ID, a)
			}
			if _, err := mon.ObserveToken(tok); err != nil {
				return nil, fmt.Errorf("core: calibrate on %s: %w", sess.ID, err)
			}
		}
		if m := mon.MinSmoothed(); m >= 0 {
			out = append(out, sessionMinimum{cluster: mon.Cluster(), min: m})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no usable validation sessions for calibration")
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

// CalibrateMonitor sets the monitor's likelihood floor from held-out
// normal sessions: the floor becomes the targetFPR-quantile of the
// per-session minimum smoothed likelihood, so roughly a targetFPR
// fraction of normal sessions would dip below it at their weakest point.
// This replaces hand-tuned thresholds with the validation-split
// calibration a deployment needs (the paper leaves the alarm threshold to
// the operators).
func (d *Detector) CalibrateMonitor(base MonitorConfig, validation []*actionlog.Session, targetFPR float64) (MonitorConfig, error) {
	if err := base.validate(); err != nil {
		return MonitorConfig{}, err
	}
	if targetFPR <= 0 || targetFPR >= 1 {
		return MonitorConfig{}, fmt.Errorf("core: target FPR %v outside (0,1)", targetFPR)
	}
	minima, err := d.monitorMinima(base, validation)
	if err != nil {
		return MonitorConfig{}, err
	}
	all := make([]float64, len(minima))
	for i, m := range minima {
		all[i] = m.min
	}
	out := base
	out.LikelihoodFloor = floorQuantile(all, targetFPR)
	out.ClusterFloors = nil
	return out, nil
}

// CalibrateMonitorPerCluster calibrates one alarm floor per behavior
// cluster from the same false-positive budget: each cluster's floor is
// the targetFPR-quantile of the minima of the validation sessions routed
// to it, so a predictable cluster gets a tight floor and a noisy one a
// loose floor instead of sharing one compromise threshold. Clusters that
// attract fewer than minSessions validation sessions (default 2 when
// minSessions <= 0) fall back to the global quantile, which also becomes
// LikelihoodFloor for any cluster outside the slice.
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
	minima, err := d.monitorMinima(base, validation)
	if err != nil {
		return MonitorConfig{}, err
	}
	all := make([]float64, len(minima))
	byCluster := make([][]float64, len(d.clusters))
	for i, m := range minima {
		all[i] = m.min
		if m.cluster >= 0 && m.cluster < len(byCluster) {
			byCluster[m.cluster] = append(byCluster[m.cluster], m.min)
		}
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
