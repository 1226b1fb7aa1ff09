package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/wire"
)

// TestServerSyncOrdersAlarmsBeforeReply pins the sync barrier: one
// connection streams the corpus anomalous sessions as a mix of event
// lines and batch frames under a floor that alarms on every scored
// action, then sends sync and status. The alarm lines read before the
// sync reply are exactly the serial reference's, as a multiset, and the
// line after the sync reply is the status reply.
func TestServerSyncOrdersAlarmsBeforeReply(t *testing.T) {
	det, tr := corpusNGram(t)
	mcfg := core.DefaultMonitorConfig()
	mcfg.LikelihoodFloor = 1.0
	mcfg.WarmupActions = 1
	var sessions []*actionlog.Session
	for _, l := range tr.Anomalies {
		sessions = append(sessions, l.Session)
	}
	events := actionlog.Flatten(sessions)
	serial, err := det.ReplaySerial(mcfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) < 64 {
		t.Fatalf("serial reference predicts %d alarms; too few to fill the connection's sink", len(serial))
	}
	want := alarmLines(t, serial)

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := NewServer(newRegistry(t, det), ServerConfig{
				Listen: "127.0.0.1:0",
				Engine: core.EngineConfig{IdleExpiry: time.Minute, Shards: shards, Monitor: mcfg},
			})
			if err != nil {
				t.Fatal(err)
			}
			shutdown := startServer(t, srv)
			defer shutdown()
			c := dial(t, srv)
			rng := rand.New(rand.NewSource(int64(shards)))
			before, st, err := c.Stream(func() error {
				for off := 0; off < len(events); {
					n := min(1+rng.Intn(7), len(events)-off)
					var err error
					if n == 1 {
						err = c.SendEvent(&events[off])
					} else {
						err = c.SendBatch(events[off : off+n])
					}
					if err != nil {
						return err
					}
					off += n
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.EventsProcessed != uint64(len(events)) {
				t.Fatalf("sync reply counts %d of %d events processed", st.EventsProcessed, len(events))
			}
			if got := alarmLines(t, before); !slices.Equal(got, want) {
				t.Fatalf("%d alarm lines before the sync reply, serial reference has %d (or they differ)", len(got), len(want))
			}
			// The next line is the status reply: no alarm line arrives
			// after the sync reply.
			reply(t, c, "status", &wire.StatusReply{})
		})
	}
}

// alarmLines encodes alarms as their wire lines, sorted: two alarm
// streams are equal as multisets when their alarmLines are equal.
func alarmLines(t *testing.T, alarms []Alarm) []string {
	t.Helper()
	out := make([]string, len(alarms))
	for i := range alarms {
		b, err := json.Marshal(&alarms[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	slices.Sort(out)
	return out
}
