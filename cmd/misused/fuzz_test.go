package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
)

// fuzzVocab is the seed vocabulary fuzz parsers intern against; every
// other action name is learned on sight, so token assignments depend
// only on the order names appear — identical across parser instances
// fed the same input.
func fuzzVocab(t testing.TB) *actionlog.Vocabulary {
	t.Helper()
	v, err := actionlog.NewVocabulary([]string{"ActionSearchUsr", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func fuzzParser(t testing.TB, noFast bool) *connParser {
	p := newConnParser(actionlog.NewInterner(fuzzVocab(t)))
	p.noFast = noFast
	return p
}

// batchEventsEqual compares two parsed event slices field by field,
// resolving tokens through each parser's own interner so the comparison
// is by action name, not by interner identity.
func batchEventsEqual(a, b []misusedBatch, ai, bi *actionlog.Interner) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ev.SessionID != b[i].Ev.SessionID || a[i].Ev.User != b[i].Ev.User ||
			!a[i].Ev.Time.Equal(b[i].Ev.Time) || a[i].Ev.Action != b[i].Ev.Action {
			return false
		}
		an, aok := ai.Snapshot().Name(a[i].Tok)
		bn, bok := bi.Snapshot().Name(b[i].Tok)
		if aok != bok || an != bn {
			return false
		}
	}
	return true
}

// FuzzServerLine fuzzes the daemon's wire-protocol line parser: whatever
// a client sends, parseInbound must return without panicking and must
// uphold the dispatch invariant the read loop relies on — a nil error
// yields either a control command or 1..maxBatchLen tokenized events,
// never both and never neither, with every accepted field bounded. Two
// differentials run on every input: the zero-copy fast scanner against
// the reflective slow path (they must agree on acceptance and values),
// and a scratch-reuse check against a parser pre-warmed with a full
// batch frame (any stale-state leak between lines is a failure).
func FuzzServerLine(f *testing.F) {
	f.Add([]byte(`{"cmd":"status"}`))
	f.Add([]byte(`{"cmd":"reload"}`))
	f.Add([]byte(`{"time":"2019-03-01T10:00:00Z","user":"alice","session_id":"s-1","action":"ActionSearchUsr"}`))
	f.Add([]byte(`{"session_id":"s","action":"a","cmd":""}`))
	f.Add([]byte(`{"action":""}`))
	f.Add([]byte(`{not json}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"time":"not-a-time","session_id":"s","action":"a"}`))
	f.Add([]byte(`{"cmd":"` + strings.Repeat("x", 2000) + `"}`))
	f.Add([]byte(`{"session_id":"` + strings.Repeat("s", 2000) + `","action":"a"}`))
	f.Add([]byte("{\"session_id\":\"s\",\"action\":\"a\",\"user\":\"\x00￿\"}"))
	// Batch-frame seeds: well-formed, empty, truncated array, an
	// oversized member field, a frame over the length cap, mixed
	// control/event frames, escapes and invalid UTF-8 (fast-path
	// fallbacks), nested junk.
	f.Add([]byte(`{"batch":[{"session_id":"s-1","action":"a"},{"session_id":"s-2","action":"b","user":"u"}]}`))
	f.Add([]byte(`{"batch":[{"time":"2019-03-01T10:00:00Z","session_id":"s","action":"zz-learned"}]}`))
	f.Add([]byte(`{"batch":[]}`))
	f.Add([]byte(`{"batch":[{"session_id":"s","action":"a"}`))
	f.Add([]byte(`{"batch":[{"session_id":"s","action":"a"},{"session_id":"s"}]}`))
	f.Add([]byte(`{"batch":[{"session_id":"` + strings.Repeat("s", 2000) + `","action":"a"}]}`))
	f.Add([]byte(oversizedBatchLine(600)))
	f.Add([]byte(`{"cmd":"status","batch":[{"session_id":"s","action":"a"}]}`))
	f.Add([]byte(`{"batch":[{"session_id":"s","action":"a"}],"session_id":"top","action":"t"}`))
	f.Add([]byte(`{"batch":[null,42,"x"]}`))
	f.Add([]byte(`{"batch":{"session_id":"s","action":"a"}}`))
	f.Add([]byte(`{"batch":[{"session_id":"sA","action":"a"}]}`))
	f.Add([]byte("{\"batch\":[{\"session_id\":\"s\xff\",\"action\":\"a\"}]}"))
	f.Add([]byte(`{"batch":[{"session_id":"s","action":"a","extra":"x"}]}`))
	f.Add([]byte(`{"batch":[{"session_id":"s","action":"a","time":"2019-03-01T10:00:00.123+02:00"}]} `))
	f.Add([]byte(`{"batch":[{"session_id":"s","action":"a","time":""}]}`))
	f.Add([]byte(`{"batch":[{"time":"bad","time":"2019-03-01T10:00:00Z","session_id":"s","action":"a"}]}`))
	// Bare event lines, which take the same fast scan as frame members:
	// whitespace around and inside the object, duplicate keys (the last
	// value wins, but every "time" is parsed), case variants of a key
	// (the reflective decoder folds case), "cmd" among event fields,
	// escaped values, an empty time, and trailing bytes.
	f.Add([]byte(" \t{ \"session_id\" : \"s\" ,\n\"action\":\"a\" , \"user\" :\"u\"}  \r"))
	f.Add([]byte(`{"session_id":"s1","action":"a","session_id":"s2"}`))
	f.Add([]byte(`{"session_id":"s","action":"a","action":"zz-learned"}`))
	f.Add([]byte(`{"time":"bad","time":"2019-03-01T10:00:00Z","session_id":"s","action":"a"}`))
	f.Add([]byte(`{"session_id":"s","action":"a","session_id":""}`))
	f.Add([]byte(`{"Session_ID":"s","action":"a"}`))
	f.Add([]byte(`{"session_id":"s","ACTION":"a"}`))
	f.Add([]byte(`{"session_id":"s","action":"a","cmd":"status"}`))
	f.Add([]byte(`{"cmd":"status","session_id":"s","action":"a"}`))
	f.Add([]byte(`{"session_id":"s\u0041","action":"a"}`))
	f.Add([]byte(`{"session_id":"s","action":"\u0061"}`))
	f.Add([]byte(`{"time":"","session_id":"s","action":"a"}`))
	f.Add([]byte(`{"session_id":"s","action":"a"} x`))
	f.Add([]byte(`{"session_id":"s","action":"a"}{}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		fast := fuzzParser(t, false)
		cmd, evs, err := fast.parseInbound(line)

		// Differential 1: the zero-copy scanner against the reflective
		// decoder — acceptance and values must match exactly.
		slow := fuzzParser(t, true)
		sCmd, sEvs, sErr := slow.parseInbound(line)
		if (err == nil) != (sErr == nil) || cmd != sCmd || !batchEventsEqual(evs, sEvs, fast.interner, slow.interner) {
			t.Fatalf("fast path diverges from slow path:\nfast: cmd=%q evs=%+v err=%v\nslow: cmd=%q evs=%+v err=%v",
				cmd, evs, err, sCmd, sEvs, sErr)
		}

		// Differential 2: a parser that just decoded an unrelated full
		// frame must parse this line identically (scratch-reuse leak).
		warm := warmParser(t)
		wCmd, wEvs, wErr := warm.parseInbound(line)
		if (err == nil) != (wErr == nil) || cmd != wCmd || !batchEventsEqual(evs, wEvs, fast.interner, warm.interner) {
			t.Fatalf("scratch reuse changed the parse:\nfresh: cmd=%q evs=%+v err=%v\nwarm:  cmd=%q evs=%+v err=%v",
				cmd, evs, err, wCmd, wEvs, wErr)
		}

		if err != nil {
			if cmd != "" || len(evs) != 0 {
				t.Fatalf("error path leaked values: cmd=%q evs=%+v", cmd, evs)
			}
			return
		}
		isCmd := cmd != ""
		isEvents := len(evs) >= 1
		if isCmd == isEvents {
			t.Fatalf("accepted line is neither exactly a command nor exactly events: cmd=%q evs=%+v line=%q", cmd, evs, line)
		}
		if len(cmd) > maxFieldLen {
			t.Fatalf("accepted command of length %d exceeds bound %d", len(cmd), maxFieldLen)
		}
		if len(evs) > maxBatchLen {
			t.Fatalf("accepted batch of length %d exceeds bound %d", len(evs), maxBatchLen)
		}
		for _, ev := range evs {
			if ev.Ev.SessionID == "" {
				t.Fatalf("accepted event missing session: %+v", ev)
			}
			// Tokenized contract: a known action carries the token and
			// no string; an unknown one carries the name.
			name := ev.Ev.Action
			if ev.Tok >= 0 {
				if name != "" {
					t.Fatalf("tokenized event retains action string: %+v", ev)
				}
				var ok bool
				if name, ok = fast.interner.Snapshot().Name(ev.Tok); !ok {
					t.Fatalf("accepted token %d outside the interner", ev.Tok)
				}
			}
			if name == "" {
				t.Fatalf("accepted event with neither token nor action: %+v", ev)
			}
			for _, s := range []string{ev.Ev.SessionID, ev.Ev.User, name} {
				if len(s) > maxFieldLen {
					t.Fatalf("accepted field of length %d exceeds bound %d", len(s), maxFieldLen)
				}
			}
		}
	})
}

// warmParser returns a parser that has already decoded a maximal batch
// frame (through the slow path) with every field populated, so any
// stale-state leak across lines has the richest possible material to
// surface with.
func warmParser(t *testing.T) *connParser {
	t.Helper()
	p := fuzzParser(t, false)
	var sb strings.Builder
	sb.WriteString(`{"batch":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		// The \u escape forces the reflective path, so its scratch is
		// the one left warm.
		fmt.Fprintf(&sb, `{"time":"2019-03-01T10:00:0%d+05:00","user":"warm-user-%d","session_id":"warm-A%d","action":"warm-action-%d"}`, i, i, i, i)
	}
	sb.WriteString(`]}`)
	if _, _, err := p.parseInbound([]byte(sb.String())); err != nil {
		t.Fatalf("warm-up frame rejected: %v", err)
	}
	return p
}

// oversizedBatchLine builds a syntactically valid batch frame of n
// events (past the maxBatchLen cap for n > maxBatchLen).
func oversizedBatchLine(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"batch":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"session_id":"s-%d","action":"a"}`, i)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// TestParseInboundFieldBounds pins the protocol-hardening bounds the
// fuzz target asserts: oversized identifiers and frames are rejected
// before they can become engine session-map keys or queue volume.
func TestParseInboundFieldBounds(t *testing.T) {
	p := fuzzParser(t, false)
	big := strings.Repeat("x", maxFieldLen+1)
	ok := strings.Repeat("x", maxFieldLen)
	if _, _, err := p.parseInbound([]byte(`{"session_id":"` + big + `","action":"a"}`)); err == nil {
		t.Fatal("oversized session_id must fail")
	}
	if _, _, err := p.parseInbound([]byte(`{"session_id":"s","action":"` + big + `"}`)); err == nil {
		t.Fatal("oversized action must fail")
	}
	if _, _, err := p.parseInbound([]byte(`{"session_id":"s","action":"a","user":"` + big + `"}`)); err == nil {
		t.Fatal("oversized user must fail")
	}
	if _, _, err := p.parseInbound([]byte(`{"cmd":"` + big + `"}`)); err == nil {
		t.Fatal("oversized command must fail")
	}
	cmd, evs, err := p.parseInbound([]byte(`{"session_id":"` + ok + `","action":"a","user":"u"}`))
	if err != nil || cmd != "" || len(evs) != 1 || evs[0].Ev.SessionID != ok {
		t.Fatalf("boundary-length session_id rejected: %q %+v %v", cmd, evs, err)
	}
	// A command line with event fields is a command; the event part is
	// ignored rather than double-dispatched.
	cmd, evs, err = p.parseInbound([]byte(`{"cmd":"status","session_id":"s","action":"a"}`))
	if err != nil || cmd != "status" || len(evs) != 0 {
		t.Fatalf("command with event fields: %q %+v %v", cmd, evs, err)
	}
	if _, _, err := p.parseInbound([]byte(`{"user":"u"}`)); err == nil {
		t.Fatal("event without session_id/action must fail")
	}
	// Timestamps pass through untouched.
	_, evs, err = p.parseInbound([]byte(`{"time":"2019-03-01T10:00:00Z","session_id":"s","action":"a"}`))
	if err != nil || len(evs) != 1 || !evs[0].Ev.Time.Equal(time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)) {
		t.Fatalf("timestamp mangled: %+v %v", evs, err)
	}
}

// TestParseInboundBatch pins the batch-frame protocol: length cap,
// per-event bounds, interning during parse, precedence over inline
// event fields, rejection of empty frames, and scratch reuse across
// frames of different shapes — on both the fast and slow parse paths.
func TestParseInboundBatch(t *testing.T) {
	for _, noFast := range []bool{false, true} {
		p := fuzzParser(t, noFast)
		label := map[bool]string{false: "fast", true: "slow"}[noFast]
		cmd, evs, err := p.parseInbound([]byte(`{"batch":[{"session_id":"s-1","action":"a","user":"u"},{"session_id":"s-2","action":"zz-new"}]}`))
		if err != nil || cmd != "" || len(evs) != 2 {
			t.Fatalf("%s: well-formed batch: %q %+v %v", label, cmd, evs, err)
		}
		if evs[0].Ev.SessionID != "s-1" || evs[0].Ev.User != "u" || evs[1].Ev.SessionID != "s-2" {
			t.Fatalf("%s: batch events mangled: %+v", label, evs)
		}
		// Interned during parse: "a" is seed index 1, "zz-new" learns
		// the next token; neither retains its action string.
		if evs[0].Tok != 1 || evs[1].Tok != 3 || evs[0].Ev.Action != "" || evs[1].Ev.Action != "" {
			t.Fatalf("%s: parse-time interning wrong: %+v", label, evs)
		}
		// A shorter second frame must not inherit the first frame's
		// fields through the reused decode buffer.
		_, evs, err = p.parseInbound([]byte(`{"batch":[{"session_id":"s-3","action":"a"}]}`))
		if err != nil || len(evs) != 1 || evs[0].Ev.User != "" || !evs[0].Ev.Time.IsZero() {
			t.Fatalf("%s: scratch leak across frames: %+v %v", label, evs, err)
		}
		if _, _, err := p.parseInbound([]byte(`{"batch":[]}`)); err == nil {
			t.Fatalf("%s: empty batch frame must fail", label)
		}
		// An empty time value is a decode error on both paths.
		if _, _, err := p.parseInbound([]byte(`{"batch":[{"session_id":"s","action":"a","time":""}]}`)); err == nil {
			t.Fatalf("%s: empty time value must fail", label)
		}
		if _, _, err := p.parseInbound([]byte(oversizedBatchLine(maxBatchLen + 1))); err == nil {
			t.Fatalf("%s: batch over %d events must fail", label, maxBatchLen)
		}
		if _, evs, err := p.parseInbound([]byte(oversizedBatchLine(maxBatchLen))); err != nil || len(evs) != maxBatchLen {
			t.Fatalf("%s: boundary-length batch rejected: %d %v", label, len(evs), err)
		}
		if _, _, err := p.parseInbound([]byte(`{"batch":[{"session_id":"s","action":"a"},{"session_id":"s"}]}`)); err == nil {
			t.Fatalf("%s: batch with an invalid member must fail whole", label)
		}
		// Precedence: cmd beats batch, batch beats inline event fields.
		cmd, evs, err = p.parseInbound([]byte(`{"cmd":"status","batch":[{"session_id":"s","action":"a"}]}`))
		if err != nil || cmd != "status" || len(evs) != 0 {
			t.Fatalf("%s: cmd+batch line: %q %+v %v", label, cmd, evs, err)
		}
		_, evs, err = p.parseInbound([]byte(`{"batch":[{"session_id":"s","action":"a"}],"session_id":"top","action":"t"}`))
		if err != nil || len(evs) != 1 || evs[0].Ev.SessionID != "s" {
			t.Fatalf("%s: batch+inline-event line: %+v %v", label, evs, err)
		}
	}
}

// TestFastScanEventLines pins which lines the zero-copy scan takes: a
// bare event line is in the fast subset like a frame member, while a
// command, an event carrying "cmd", a case-folded or repeated key, an
// escape and an empty time are left to the reflective decoder.
func TestFastScanEventLines(t *testing.T) {
	p := fuzzParser(t, false)
	for _, line := range []string{
		`{"time":"2019-03-01T10:00:00Z","user":"alice","session_id":"s-1","action":"ActionSearchUsr"}`,
		" { \"session_id\" : \"s\" ,\t\"action\" : \"zz-learned\" } ",
	} {
		if evs, ok := p.fastBatch([]byte(line)); !ok || len(evs) != 1 {
			t.Fatalf("event line %q missed the fast scan: %+v %v", line, evs, ok)
		}
	}
	for _, line := range []string{
		`{"cmd":"status"}`,
		`{"session_id":"s","action":"a","cmd":"status"}`,
		`{"Session_ID":"s","action":"a"}`,
		`{"session_id":"s","action":"a","action":"b"}`,
		`{"session_id":"s\u0041","action":"a"}`,
		`{"time":"","session_id":"s","action":"a"}`,
		`{"session_id":"s","action":"a"} x`,
	} {
		if evs, ok := p.fastBatch([]byte(line)); ok {
			t.Fatalf("line %q took the fast scan: %+v", line, evs)
		}
	}
}

// TestFastScanAllocatesOwnedStringsOnly pins the frame path's
// allocation count: parsing a frame of known actions allocates exactly
// the two strings per event the engine must own, its session ID and its
// user.
func TestFastScanAllocatesOwnedStringsOnly(t *testing.T) {
	p, line := benchFrame(t)
	if _, evs, err := p.parseInbound(line); err != nil || len(evs) != 64 {
		t.Fatalf("frame rejected: %d events, %v", len(evs), err)
	}
	if got := testing.AllocsPerRun(50, func() { p.parseInbound(line) }); got != 2*64 {
		t.Fatalf("a 64-event frame costs %v allocations, want %d", got, 2*64)
	}
}
