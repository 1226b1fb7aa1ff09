//go:build linux

package main

import (
	"fmt"
	"sort"
	"sync"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// referenceGroups splits the serial reference into this many session
// groups. Sessions never influence one another (one monitor each), so
// replaying each group's sub-stream in stream order and pooling the
// alarms equals Detector.ReplaySerial on the whole stream — without
// holding every session's monitor, or every event record, at once.
const referenceGroups = 16

// reference computes the alarm multiset the daemon must reproduce:
// Detector.ReplaySerial over the stream, the repository's own serial
// anchor. Two groups run at a time, one per CPU; the daemon is already
// stopped when this runs.
func reference(st *stream, det *core.Detector, mcfg core.MonitorConfig) ([]alarmKey, error) {
	index := st.sessionIndex()
	var (
		mu       sync.Mutex
		out      []alarmKey
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, 2) // one reference worker per CPU
	for g := 0; g < referenceGroups; g++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(g int) {
			defer wg.Done()
			defer func() { <-sem }()
			var evs []actionlog.Event
			for i, e := range st.evs {
				if int(e.sess)%referenceGroups == g {
					evs = append(evs, st.logEvent(i))
				}
			}
			alarms, err := det.ReplaySerial(mcfg, evs)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for _, a := range alarms {
				out = append(out, alarmKey{sess: index[a.SessionID], pos: int32(a.Position), kind: kindNames[a.Kind]})
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("serial reference: %w", firstErr)
	}
	sortKeys(out)
	return out, nil
}

func sortKeys(keys []alarmKey) {
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
}

// diffAlarms compares the received alarm multiset with the reference
// (both sorted) and returns how many alarms are missing, how many are
// extra, and a description of the first difference.
func diffAlarms(st *stream, got, want []alarmKey) (missing, extra int, first string) {
	describe := func(what string, k alarmKey) string {
		kind := "?"
		for name, code := range kindNames {
			if code == k.kind {
				kind = name
			}
		}
		return fmt.Sprintf("%s alarm: session %s position %d kind %s", what, st.sessions[k.sess].id, k.pos, kind)
	}
	note := func(s string) {
		if first == "" {
			first = s
		}
	}
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i].less(want[j])):
			note(describe("extra", got[i]))
			extra++
			i++
		case i == len(got) || want[j].less(got[i]):
			note(describe("missing", want[j]))
			missing++
			j++
		default:
			i++
			j++
		}
	}
	return missing, extra, first
}
