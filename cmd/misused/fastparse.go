package main

import (
	"unicode/utf8"

	"misusedetect/internal/actionlog"
)

// fastBatch is the zero-copy scan of the two event shapes a client sends:
// a {"batch":[...]} frame, and a bare event object on a line of its own.
// It is one pass over the wire bytes, no reflection, and — for actions
// the interner already knows — no string allocation at all (the token is
// looked up straight from the byte slice). Per-event allocations are
// exactly the session-ID and user strings the engine must own.
//
// The scanner deliberately covers only the well-formed fast subset:
// a frame with strictly a single top-level "batch" key, or one event
// object followed by nothing but whitespace; string-valued fields from
// the known event schema, each key at most once and spelled exactly; no
// escape sequences, valid UTF-8, every bound respected. Anything else — a
// command line, an event carrying "cmd", malformed JSON, an oversized
// field or frame, an exotic but legal encoding — returns ok=false and the
// caller falls back to the reflective decoder, which remains the single
// source of truth for protocol errors. A fuzz-driven differential test
// pins the two paths to identical results on every accepted input.
func (p *connParser) fastBatch(line []byte) (evs []misusedBatch, ok bool) {
	s := fastScanner{b: line}
	s.ws()
	obj := s.pos
	if !s.eat('{') {
		return nil, false
	}
	s.ws()
	if key, kok := s.rawString(); !kok || string(key) != "batch" {
		// Not a frame: the line may still be one bare event.
		s.pos = obj
		ev, eok := p.fastEvent(&s)
		s.ws()
		if !eok || !s.done() {
			return nil, false
		}
		p.toks = append(p.toks[:0], ev)
		return p.toks, true
	}
	s.ws()
	if !s.eat(':') {
		return nil, false
	}
	s.ws()
	if !s.eat('[') {
		return nil, false
	}
	evs = p.toks[:0]
	s.ws()
	if s.peek() == ']' {
		// Empty frames are protocol errors; let the slow path say so.
		return nil, false
	}
	for {
		ev, eok := p.fastEvent(&s)
		if !eok || len(evs) >= maxBatchLen {
			return nil, false
		}
		evs = append(evs, ev)
		s.ws()
		if s.eat(',') {
			s.ws()
			continue
		}
		if s.eat(']') {
			break
		}
		return nil, false
	}
	s.ws()
	if !s.eat('}') {
		return nil, false
	}
	s.ws()
	if !s.done() {
		return nil, false
	}
	p.toks = evs
	return evs, true
}

// fastEvent scans one event object of the fast subset and validates the
// protocol bounds inline.
func (p *connParser) fastEvent(s *fastScanner) (misusedBatch, bool) {
	if !s.eat('{') {
		return misusedBatch{}, false
	}
	var timeB, userB, sidB, actionB []byte
	// seen has one bit per schema key. A repeated key falls back: the
	// reflective decoder parses every occurrence of "time", so an invalid
	// one that a later value overrides is still its error.
	const (
		keyTime uint8 = 1 << iota
		keyUser
		keySession
		keyAction
	)
	var seen uint8
	s.ws()
	if !s.eat('}') {
		for {
			key, ok := s.rawString()
			if !ok {
				return misusedBatch{}, false
			}
			s.ws()
			if !s.eat(':') {
				return misusedBatch{}, false
			}
			s.ws()
			val, ok := s.rawString()
			if !ok {
				return misusedBatch{}, false
			}
			var bit uint8
			switch string(key) {
			case "time":
				timeB, bit = val, keyTime
			case "user":
				userB, bit = val, keyUser
			case "session_id":
				sidB, bit = val, keySession
			case "action":
				actionB, bit = val, keyAction
			default:
				// Unknown keys (or non-string values, rejected above)
				// are legal JSON the fast subset doesn't model.
				return misusedBatch{}, false
			}
			if seen&bit != 0 {
				return misusedBatch{}, false
			}
			seen |= bit
			s.ws()
			if s.eat(',') {
				s.ws()
				continue
			}
			if s.eat('}') {
				break
			}
			return misusedBatch{}, false
		}
	}
	if len(sidB) == 0 || len(actionB) == 0 {
		return misusedBatch{}, false
	}
	if len(sidB) > maxFieldLen || len(userB) > maxFieldLen || len(actionB) > maxFieldLen {
		return misusedBatch{}, false
	}
	if seen&keyTime != 0 && len(timeB) == 0 {
		// "time":"" — the reflective decoder rejects it; let it.
		return misusedBatch{}, false
	}
	ev := misusedBatch{}
	if len(timeB) > 0 {
		// time.Time's UnmarshalJSON strips the quotes and parses the
		// rest exactly as UnmarshalText does, so timestamp acceptance is
		// the slow path's.
		if err := ev.Ev.Time.UnmarshalText(timeB); err != nil {
			return misusedBatch{}, false
		}
	}
	ev.Ev.SessionID = string(sidB)
	if len(userB) > 0 {
		ev.Ev.User = string(userB)
	}
	ev.Tok = p.interner.InternBytes(actionB)
	if ev.Tok == actionlog.TokenUnknown {
		// Past the interner's learning budget: SubmitTokens wants the
		// name of an event without a token, and the engine's
		// unknown-action log line names it, so materialize it (rare
		// path).
		ev.Ev.Action = string(actionB)
	}
	return ev, true
}

// fastScanner is a byte cursor over one wire line.
type fastScanner struct {
	b   []byte
	pos int
}

func (s *fastScanner) ws() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *fastScanner) eat(c byte) bool {
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *fastScanner) peek() byte {
	if s.pos < len(s.b) {
		return s.b[s.pos]
	}
	return 0
}

func (s *fastScanner) done() bool { return s.pos == len(s.b) }

// rawString scans a JSON string of the fast subset — no escape
// sequences, no control characters, valid UTF-8 — returning the raw
// bytes between the quotes without copying. Escapes and invalid UTF-8
// (which encoding/json would unescape or coerce) report false so the
// slow path decodes them.
func (s *fastScanner) rawString() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.pos
	high := false
	for s.pos < len(s.b) {
		c := s.b[s.pos]
		switch {
		case c == '"':
			out := s.b[start:s.pos]
			s.pos++
			if high && !utf8.Valid(out) {
				return nil, false
			}
			return out, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= 0x80:
			high = true
		}
		s.pos++
	}
	return nil, false
}
