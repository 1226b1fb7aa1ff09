package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// corpusDetector trains one small 13-cluster detector on the embedded
// corpus, shared by the end-to-end concurrency tests.
var (
	e2eOnce sync.Once
	e2eDet  *core.Detector
	e2eErr  error
)

func e2eDetector(t *testing.T) *core.Detector {
	t.Helper()
	e2eOnce.Do(func() {
		c, err := corpus.Load()
		if err != nil {
			e2eErr = err
			return
		}
		vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
		if err != nil {
			e2eErr = err
			return
		}
		cfg := core.ScaledConfig(vocab.Size(), 13, 8, 2, 11)
		cfg.LM.Trainer.LearningRate = 0.01
		cfg.LM.Network.DropoutRate = 0
		e2eDet, e2eErr = core.TrainDetector(cfg, vocab, c.ByCluster(), nil)
	})
	if e2eErr != nil {
		t.Fatalf("train corpus detector: %v", e2eErr)
	}
	return e2eDet
}

// alarmKey identifies one alarm within a session stream: positions are
// strictly increasing, so (session, kind, position) occurs at most once.
func alarmKey(sessionID, kind string, position int) string {
	return fmt.Sprintf("%s|%s|%d", sessionID, kind, position)
}

// TestConcurrentClientsAlarmsExactlyOnce is the end-to-end race test of
// the ISSUE: >= 8 concurrent clients replay disjoint slices of the
// embedded corpus against the TCP server, and every alarm the serial
// reference path predicts arrives on the owning client's connection
// exactly once — no losses, no duplicates, no cross-connection leaks.
func TestConcurrentClientsAlarmsExactlyOnce(t *testing.T) {
	det := e2eDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	sessions := c.ActionSessions()
	mcfg := core.DefaultMonitorConfig()

	// Serial reference: the expected alarm multiset per session.
	expected := make(map[string]int)
	expectedTotal := 0
	for i := range sessions {
		alarms, err := det.ReplaySerial(mcfg, actionlog.Flatten(sessions[i:i+1]))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alarms {
			expected[alarmKey(a.SessionID, a.Kind, a.Position)]++
			expectedTotal++
		}
	}
	if expectedTotal == 0 {
		t.Fatal("serial reference predicts no alarms; the exactly-once check would be vacuous")
	}

	srv, err := NewServer(newRegistry(t, det), ServerConfig{
		Listen: "127.0.0.1:0",
		Engine: core.EngineConfig{IdleExpiry: time.Minute, Shards: 4, QueueDepth: 32, Monitor: mcfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := startServer(t, srv)
	defer shutdown()

	const clients = 8
	results := make([]map[string]int, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			got := make(map[string]int)
			results[ci] = got
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(2 * time.Minute))

			// Reader first, so alarms never back up the connection.
			readDone := make(chan error, 1)
			go func() {
				sc := bufio.NewScanner(conn)
				sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
				for sc.Scan() {
					var a Alarm
					if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
						readDone <- fmt.Errorf("client %d: bad alarm line %q: %v", ci, sc.Text(), err)
						return
					}
					got[alarmKey(a.SessionID, a.Kind, a.Position)]++
				}
				readDone <- sc.Err()
			}()

			// This client owns every clients-th corpus session.
			enc := json.NewEncoder(conn)
			for i := ci; i < len(sessions); i += clients {
				for _, ev := range actionlog.Flatten(sessions[i : i+1]) {
					if err := enc.Encode(&ev); err != nil {
						errs <- fmt.Errorf("client %d: send: %w", ci, err)
						return
					}
				}
			}
			// Half-close: the server scores everything we sent, flushes
			// our alarms, and closes, ending the reader with EOF.
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				errs <- fmt.Errorf("client %d: close write: %w", ci, err)
				return
			}
			if err := <-readDone; err != nil {
				errs <- err
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every client received exactly the alarms of its own sessions.
	merged := make(map[string]int)
	mergedTotal := 0
	for ci, got := range results {
		for key, n := range got {
			if n != 1 {
				t.Errorf("client %d received alarm %s %d times, want exactly once", ci, key, n)
			}
			if expected[key] == 0 {
				t.Errorf("client %d received unexpected alarm %s", ci, key)
			}
			merged[key] += n
			mergedTotal += n
		}
	}
	for key, n := range expected {
		if merged[key] != n {
			t.Errorf("alarm %s: received %d times, want %d", key, merged[key], n)
		}
	}
	if mergedTotal != expectedTotal {
		t.Fatalf("received %d alarms in total, serial reference predicts %d", mergedTotal, expectedTotal)
	}
	if st := srv.Stats(); st.ScoreErrors != 0 {
		t.Fatalf("%d score errors on corpus traffic", st.ScoreErrors)
	}
}
