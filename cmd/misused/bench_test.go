package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// benchFrame returns a fresh parser and a 64-event {"batch":[...]}
// frame in the shape a log shipper sends: RFC 3339 times, a user,
// session IDs that repeat across the frame, and action names all in the
// parser's vocabulary.
func benchFrame(tb testing.TB) (*connParser, []byte) {
	tb.Helper()
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("ActionName%02d", i)
	}
	vocab, err := actionlog.NewVocabulary(names)
	if err != nil {
		tb.Fatal(err)
	}
	base := time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)
	var sb strings.Builder
	sb.WriteString(`{"batch":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"time":"%s","user":"user-%03d","session_id":"s%07d","action":"%s"}`,
			base.Add(time.Duration(i)*time.Millisecond).Format(time.RFC3339Nano), i%8, 1000+i%16, names[(i*7)%len(names)])
	}
	sb.WriteString(`]}`)
	return newConnParser(actionlog.NewInterner(vocab)), []byte(sb.String())
}

// BenchmarkParseFrame times parseInbound on one 64-event frame, per
// event.
func BenchmarkParseFrame(b *testing.B) {
	p, line := benchFrame(b)
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		_, evs, err := p.parseInbound(line)
		if err != nil || len(evs) != 64 {
			b.Fatalf("frame rejected: %d events, %v", len(evs), err)
		}
		n += len(evs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	b.ReportMetric(float64(testing.AllocsPerRun(100, func() { p.parseInbound(line) }))/64, "allocs/event")
}

// BenchmarkWriteAlarms times alarms through Server.write onto a loopback
// TCP connection whose peer discards what it reads; an op is one alarm.
// The producer keeps the sink as full as the writer lets it, as a shard
// does under load.
func BenchmarkWriteAlarms(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			drained <- -1
			return
		}
		n, _ := io.Copy(io.Discard, c)
		c.Close()
		drained <- n
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	alarm := Alarm{
		Time:      time.Date(2019, 3, 1, 10, 0, 0, 123456789, time.UTC),
		SessionID: "s0001234",
		User:      "user-007",
		Kind:      core.AlarmLowLikelihood.String(),
		Position:  17, Cluster: 3, ModelVersion: 1, Likelihood: 0.000123456789,
	}
	s := &Server{}
	alarms := make(chan Alarm, 64) // the size of a connection's sink in handle
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.write(context.Background(), conn, alarms, nil)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alarm.Position = i
		alarms <- alarm
	}
	close(alarms)
	<-done
	b.StopTimer()
	conn.Close()
	if n := <-drained; n <= 0 {
		b.Fatalf("peer read %d bytes", n)
	}
}
