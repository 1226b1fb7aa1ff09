package actionlog

import (
	"sync"
	"sync/atomic"
)

// TokenUnknown is the sentinel token for an action the interner could not
// resolve: an empty name, or a name past the learning budget. Declared
// untyped so it compares against both int and int32 tokens.
const TokenUnknown = -1

// DefaultLearnLimit bounds how many action names beyond the seed
// vocabulary an Interner will learn before answering TokenUnknown.
// Wire-facing interners see attacker-controlled names; without a cap a
// client could grow the intern pool without bound.
const DefaultLearnLimit = 4096

// Interner is the read-mostly string→token map at the ingestion edge: the
// one place an action name is resolved to a dense integer token, exactly
// once per event. Tokens [0, seed.Size()) are the seed vocabulary's
// indices verbatim; names outside the seed are learned on first sight and
// assigned the next token, so out-of-vocabulary actions stay first-class
// integers all the way to drift detection and retraining instead of
// re-entering the system as strings.
//
// Token IDs are stable for the lifetime of the Interner: the intern pool
// only grows, never reorders. A model generation with a different
// vocabulary therefore does not invalidate tokens — consumers remap
// token→generation-index through an InternSnapshot (see core's engine).
//
// Intern is safe for concurrent use: readers take one atomic snapshot
// load plus one map lookup; learning a new name is a copy-on-write swap
// serialized by a mutex.
type Interner struct {
	mu    sync.Mutex // serializes learning
	limit int
	snap  atomic.Pointer[InternSnapshot]
}

// InternSnapshot is one immutable view of the intern pool. Snapshots are
// append-only along an Interner's lifetime: any later snapshot resolves
// every token a prior snapshot issued, so a recorded token sequence plus
// any snapshot taken at or after recording is self-describing.
type InternSnapshot struct {
	seed  *Vocabulary
	names []string
	index map[string]int32
}

// NewInterner builds an interner over the seed vocabulary with the
// default learning budget.
func NewInterner(seed *Vocabulary) *Interner {
	return NewInternerLimit(seed, DefaultLearnLimit)
}

// NewInternerLimit builds an interner that learns at most learnLimit
// names beyond the seed vocabulary; further unknown names intern to
// TokenUnknown.
func NewInternerLimit(seed *Vocabulary, learnLimit int) *Interner {
	if learnLimit < 0 {
		learnLimit = 0
	}
	names := seed.Actions()
	index := make(map[string]int32, len(names))
	for i, n := range names {
		index[n] = int32(i)
	}
	in := &Interner{limit: learnLimit}
	in.snap.Store(&InternSnapshot{seed: seed, names: names, index: index})
	return in
}

// Seed returns the vocabulary the interner was built over.
func (in *Interner) Seed() *Vocabulary { return in.snap.Load().seed }

// Snapshot returns the current immutable view of the intern pool.
func (in *Interner) Snapshot() *InternSnapshot { return in.snap.Load() }

// Intern resolves an action name to its token, learning the name when it
// is new and the learning budget allows. Empty names and names past the
// budget intern to TokenUnknown.
func (in *Interner) Intern(name string) int32 {
	if name == "" {
		return TokenUnknown
	}
	if tok, ok := in.snap.Load().index[name]; ok {
		return tok
	}
	return in.learn(name)
}

// InternBytes is Intern for a name still sitting in a wire buffer: the
// lookup is allocation-free for known names (the map index converts the
// bytes without copying), and the name is copied to a string only on the
// rare learn path. This is the zero-copy edge: a known action travels
// from the socket to the scoring engine without ever materializing as a
// Go string.
func (in *Interner) InternBytes(name []byte) int32 {
	if len(name) == 0 {
		return TokenUnknown
	}
	if tok, ok := in.snap.Load().index[string(name)]; ok {
		return tok
	}
	return in.learn(string(name))
}

// InternAll interns a slice of names in order.
func (in *Interner) InternAll(names []string) []int32 {
	out := make([]int32, len(names))
	for i, n := range names {
		out[i] = in.Intern(n)
	}
	return out
}

// learn is the copy-on-write slow path: the new name gets the next token
// in a fresh snapshot. The names slice is shared between snapshots —
// appends are serialized under mu and always extend the latest snapshot,
// and readers never index past their own snapshot's length.
func (in *Interner) learn(name string) int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.snap.Load()
	if tok, ok := s.index[name]; ok {
		return tok
	}
	if len(s.names)-s.seed.Size() >= in.limit {
		return TokenUnknown
	}
	tok := int32(len(s.names))
	index := make(map[string]int32, len(s.index)+1)
	for k, v := range s.index {
		index[k] = v
	}
	index[name] = tok
	in.snap.Store(&InternSnapshot{seed: s.seed, names: append(s.names, name), index: index})
	return tok
}

// Len returns the number of interned names (seed plus learned).
func (s *InternSnapshot) Len() int { return len(s.names) }

// Base returns the seed vocabulary size: tokens below it are seed indices
// verbatim, tokens at or above it were learned from live traffic.
func (s *InternSnapshot) Base() int { return s.seed.Size() }

// Seed returns the seed vocabulary.
func (s *InternSnapshot) Seed() *Vocabulary { return s.seed }

// Name resolves a token back to its action name.
func (s *InternSnapshot) Name(tok int32) (string, bool) {
	if tok < 0 || int(tok) >= len(s.names) {
		return "", false
	}
	return s.names[tok], true
}

// RemapTo builds a token→index table into the given vocabulary: table[t]
// is the vocabulary index of token t's name, or TokenUnknown when the
// name is outside it. This is how token streams recorded against the
// interner are re-expressed in a (possibly different) model generation's
// vocabulary without ever re-interning strings per event.
func (s *InternSnapshot) RemapTo(v *Vocabulary) []int32 {
	out := make([]int32, len(s.names))
	for t, name := range s.names {
		if i, err := v.Index(name); err == nil {
			out[t] = int32(i)
		} else {
			out[t] = TokenUnknown
		}
	}
	return out
}
