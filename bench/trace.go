//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root) and Request the client
// write (on the wire) or the wave (in the in-process replica) it belongs
// to; spans of one request share that number.
type span struct {
	Name    string
	Layer   string
	Start   time.Time
	End     time.Time
	Parent  int
	Request int
}

// tracer keeps the spans of one traced run in memory; they are written
// out once, when the run ends. It is used from one goroutine at a time.
type tracer struct {
	spans []span
	// requests caps the client spans: only the first requests writes
	// (and the alarms they raised) are kept, so a line-per-write run of
	// hundreds of thousands of writes does not dominate the file.
	requests int
}

func (t *tracer) add(s span) int {
	if s.Layer == "client" && s.Request >= t.requests {
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// open starts a span now and returns its index; a nil tracer records
// nothing, which is how the untraced replay runs the same code.
func (t *tracer) open(name, layer string, parent, request int) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Layer: layer, Start: time.Now(), Parent: parent, Request: request})
}

// shut ends the span opened as idx.
func (t *tracer) shut(idx int) {
	if t != nil && idx >= 0 {
		t.spans[idx].End = time.Now()
	}
}

// write stores the spans as JSON lines: name, layer, start and end in
// nanoseconds since the first span, parent, request.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var epoch time.Time
	for i := range t.spans {
		if epoch.IsZero() || t.spans[i].Start.Before(epoch) {
			epoch = t.spans[i].Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		rec := struct {
			Name    string `json:"name"`
			Layer   string `json:"layer"`
			Start   int64  `json:"start"`
			End     int64  `json:"end"`
			Parent  int    `json:"parent"`
			Request int    `json:"request"`
		}{s.Name, s.Layer, s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds(), s.Parent, s.Request}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer string
	spans int
	self  time.Duration
}

// selfTimes folds spans into per-layer self time: a span's duration
// minus the part of it its child spans cover. Children of one parent do
// not overlap here (each is a sequential call), so covered time is the
// sum of their durations, clamped to the parent's.
func selfTimes(spans []span) []layerTime {
	covered := make([]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			covered[p] += spans[i].End.Sub(spans[i].Start)
		}
	}
	byLayer := map[string]*layerTime{}
	for i := range spans {
		lt := byLayer[spans[i].Layer]
		if lt == nil {
			lt = &layerTime{layer: spans[i].Layer}
			byLayer[spans[i].Layer] = lt
		}
		d := spans[i].End.Sub(spans[i].Start)
		lt.spans++
		lt.self += d - min(covered[i], d)
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// spanTotal sums the durations of the spans called name.
func spanTotal(spans []span, name string) time.Duration {
	var d time.Duration
	for i := range spans {
		if spans[i].Name == name {
			d += spans[i].End.Sub(spans[i].Start)
		}
	}
	return d
}
