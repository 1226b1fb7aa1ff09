package actionlog

import (
	"fmt"
	"sort"
)

// MaxVocabSize is the largest action vocabulary a model may be trained,
// saved or loaded over, for every backend. The model loaders refuse
// larger ones, so a corrupted file cannot declare a size that forces a
// huge allocation before its data is read, and the trainers refuse them
// too, so no model is saved that would not load.
const MaxVocabSize = 1 << 20

// Vocabulary maps the system's fixed set of action names to dense indices
// [0, Size). It is immutable after construction; the learning components
// rely on indices staying stable.
type Vocabulary struct {
	actions []string
	index   map[string]int
}

// NewVocabulary builds a vocabulary from a list of action names. Duplicates
// are rejected: the action set of a system is fixed and unambiguous.
func NewVocabulary(actions []string) (*Vocabulary, error) {
	v := &Vocabulary{
		actions: make([]string, 0, len(actions)),
		index:   make(map[string]int, len(actions)),
	}
	for _, a := range actions {
		if a == "" {
			return nil, fmt.Errorf("actionlog: empty action name")
		}
		if _, dup := v.index[a]; dup {
			return nil, fmt.Errorf("actionlog: duplicate action %q", a)
		}
		v.index[a] = len(v.actions)
		v.actions = append(v.actions, a)
	}
	return v, nil
}

// VocabularyFromSessions builds a vocabulary from every distinct action
// observed in the sessions, in deterministic (sorted) order.
func VocabularyFromSessions(sessions []*Session) (*Vocabulary, error) {
	seen := make(map[string]struct{})
	for _, s := range sessions {
		for _, a := range s.Actions {
			seen[a] = struct{}{}
		}
	}
	names := make([]string, 0, len(seen))
	for a := range seen {
		names = append(names, a)
	}
	sort.Strings(names)
	return NewVocabulary(names)
}

// Size returns the number of distinct actions d.
func (v *Vocabulary) Size() int { return len(v.actions) }

// Index returns the dense index of the action name, or an error when the
// action is outside the system's action set.
func (v *Vocabulary) Index(action string) (int, error) {
	i, ok := v.index[action]
	if !ok {
		return 0, fmt.Errorf("actionlog: unknown action %q", action)
	}
	return i, nil
}

// Contains reports whether the action is part of the vocabulary.
func (v *Vocabulary) Contains(action string) bool {
	_, ok := v.index[action]
	return ok
}

// Action returns the name at index i, or an error when i is out of range.
func (v *Vocabulary) Action(i int) (string, error) {
	if i < 0 || i >= len(v.actions) {
		return "", fmt.Errorf("actionlog: action index %d out of range [0,%d)", i, len(v.actions))
	}
	return v.actions[i], nil
}

// Actions returns a copy of the action names in index order.
func (v *Vocabulary) Actions() []string {
	out := make([]string, len(v.actions))
	copy(out, v.actions)
	return out
}

// Encode converts a session's action names to dense indices. It fails on
// any action outside the vocabulary.
func (v *Vocabulary) Encode(s *Session) ([]int, error) {
	out := make([]int, len(s.Actions))
	for i, a := range s.Actions {
		idx, err := v.Index(a)
		if err != nil {
			return nil, fmt.Errorf("actionlog: encode session %s position %d: %w", s.ID, i, err)
		}
		out[i] = idx
	}
	return out, nil
}

// EncodeAll encodes a slice of sessions, failing on the first session that
// references an unknown action.
func (v *Vocabulary) EncodeAll(sessions []*Session) ([][]int, error) {
	out := make([][]int, len(sessions))
	for i, s := range sessions {
		enc, err := v.Encode(s)
		if err != nil {
			return nil, err
		}
		out[i] = enc
	}
	return out, nil
}

// Decode converts dense indices back to action names.
func (v *Vocabulary) Decode(indices []int) ([]string, error) {
	out := make([]string, len(indices))
	for i, idx := range indices {
		a, err := v.Action(idx)
		if err != nil {
			return nil, fmt.Errorf("actionlog: decode position %d: %w", i, err)
		}
		out[i] = a
	}
	return out, nil
}
