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
// indices verbatim. Install adds a model vocabulary's names in bulk;
// names outside every installed vocabulary are learned on first sight
// and assigned the next token, so out-of-vocabulary actions stay
// first-class integers all the way to drift detection and retraining
// instead of re-entering the system as strings.
//
// Token IDs are stable for the lifetime of the Interner: the intern pool
// only grows, never reorders. A model generation with a different
// vocabulary therefore does not invalidate tokens — consumers remap
// token→generation-index through an InternSnapshot (see core's registry).
//
// Intern is safe for concurrent use: readers take one atomic snapshot
// load plus one map lookup; learning and installing are copy-on-write
// swaps serialized by a mutex.
type Interner struct {
	mu    sync.Mutex // serializes learn and Install
	limit int
	snap  atomic.Pointer[InternSnapshot]
}

// InternSnapshot is one immutable view of the intern pool. Snapshots are
// append-only along an Interner's lifetime: any later snapshot resolves
// every token a prior snapshot issued, so a recorded token sequence plus
// any snapshot taken at or after recording is self-describing.
type InternSnapshot struct {
	names []string
	index map[string]int32
	// learned counts the names learned from traffic, the ones the
	// learning budget limits (seed and installed names are not).
	learned int
}

// NewInterner builds an interner over the seed vocabulary with the
// default learning budget.
func NewInterner(seed *Vocabulary) *Interner {
	return NewInternerLimit(seed, DefaultLearnLimit)
}

// NewInternerLimit builds an interner that learns at most learnLimit
// names beyond the seed vocabulary and the installed ones; further
// unknown names intern to TokenUnknown.
func NewInternerLimit(seed *Vocabulary, learnLimit int) *Interner {
	in := &Interner{limit: max(learnLimit, 0)}
	in.snap.Store(&InternSnapshot{index: map[string]int32{}})
	in.Install(seed)
	return in
}

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

// Install interns every action of a model vocabulary outside the
// learning budget: a vocabulary is trusted, bounded input, unlike the
// names on the wire. Names already interned keep their tokens, so
// installing the same vocabulary twice adds nothing.
func (in *Interner) Install(v *Vocabulary) {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.snap.Load()
	var fresh []string
	for _, name := range v.Actions() {
		if _, ok := s.index[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	if len(fresh) > 0 {
		in.snap.Store(s.with(fresh, s.learned))
	}
}

// learn is the copy-on-write slow path: the new name gets the next token
// in a fresh snapshot, unless the learning budget is spent.
func (in *Interner) learn(name string) int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.snap.Load()
	if tok, ok := s.index[name]; ok {
		return tok
	}
	if s.learned >= in.limit {
		return TokenUnknown
	}
	in.snap.Store(s.with([]string{name}, s.learned+1))
	return int32(len(s.names))
}

// with returns the snapshot extended by names, which take the next
// tokens in order. The names slice is shared between snapshots: appends
// are serialized under the interner's mutex and always extend the latest
// snapshot, and readers never index past their own snapshot's length.
func (s *InternSnapshot) with(names []string, learned int) *InternSnapshot {
	index := make(map[string]int32, len(s.index)+len(names))
	for k, v := range s.index {
		index[k] = v
	}
	for i, name := range names {
		index[name] = int32(len(s.names) + i)
	}
	return &InternSnapshot{names: append(s.names, names...), index: index, learned: learned}
}

// Len returns the number of interned names (seed plus learned).
func (s *InternSnapshot) Len() int { return len(s.names) }

// Learned returns how many of the names were learned from traffic: the
// share of the pool the learning budget limits.
func (s *InternSnapshot) Learned() int { return s.learned }

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
