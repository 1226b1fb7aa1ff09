package wire

import (
	"fmt"
	"strings"
	"time"

	"misusedetect/internal/harness"
)

// Report is the alarm-level outcome of Replay: the deployed stack's at
// the daemon's thresholds, which is what a canary check wants.
type Report struct {
	Addr string `json:"addr"`
	// Backend, ModelVersion, and Shards echo the daemon's status line.
	Backend        string `json:"backend"`
	ModelVersion   uint64 `json:"model_version"`
	Shards         int    `json:"shards"`
	Events         int    `json:"events"`
	AlarmsReceived int    `json:"alarms_received"`
	harness.Detection
}

// Replay streams tr.Events() to the daemon at addr and folds every
// alarm they raised into a Report. Session IDs are salted on the wire:
// the daemon keys session monitors by ID, so a second replay of the
// same IDs would resume the first run's monitors and skew the report.
func Replay(addr string, tr *harness.Traffic, timeout time.Duration) (*Report, error) {
	c, err := Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	stream := tr.Events()
	salt := fmt.Sprintf(".%x", time.Now().UnixNano())
	for i := range stream {
		stream[i].SessionID += salt
	}
	alarms, st, err := c.Stream(func() error {
		for i := range stream {
			if err := c.SendEvent(&stream[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wire: replay: %w", err)
	}
	for i := range alarms {
		alarms[i].SessionID = strings.TrimSuffix(alarms[i].SessionID, salt)
	}
	return &Report{
		Addr:           addr,
		Backend:        st.Backend,
		ModelVersion:   st.ModelVersion,
		Shards:         st.Shards,
		Events:         len(stream),
		AlarmsReceived: len(alarms),
		Detection:      harness.FoldAlarms(alarms, tr.EvalSessions()),
	}, nil
}
