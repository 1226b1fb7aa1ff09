package baseline

import (
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/tensor"
)

// LoadNGram and LoadHMM read the payloads Save writes. They are the
// classical backends' loaders in internal/core's backends table, which
// dispatches to them on the backend tag of a model file's envelope.

// ngramPayload is the gob wire form of an NGram: every counted gram's
// key in ascending order, with its count. A context's totals follow from
// its grams, so the bytes are a function of the counts alone.
type ngramPayload struct {
	Vocab      int
	Grams      []uint64
	GramCounts []float64
}

// ngramPayloadIn is what LoadNGram decodes: the payload's fields plus
// those of the string-keyed form saved before integer keys, whose
// Counts[k] mapped each order-k context (two little-endian bytes and a
// comma per action, oldest first) to its action counts. A build before
// integer keys reads a current file as a zero Config and refuses it.
type ngramPayloadIn struct {
	Vocab      int
	Grams      []uint64
	GramCounts []float64
	Config     struct {
		Order    int
		Discount float64
	}
	Counts []map[string]struct{ Actions map[int]float64 }
}

// sortedGrams lists a gram table's keys in ascending order, with their
// counts.
func sortedGrams(grams map[uint64]float64) ([]uint64, []float64) {
	keys := slices.Sorted(maps.Keys(grams))
	counts := make([]float64, len(keys))
	for i, g := range keys {
		counts[i] = grams[g]
	}
	return keys, counts
}

// Save writes the n-gram model to w with gob.
func (m *NGram) Save(w io.Writer) error {
	p := ngramPayload{Vocab: m.vocab}
	p.Grams, p.GramCounts = sortedGrams(m.grams)
	if err := gob.NewEncoder(w).Encode(&p); err != nil {
		return fmt.Errorf("baseline: save ngram: %w", err)
	}
	return nil
}

// LoadNGram reads a model written by Save, in either form.
func LoadNGram(r io.Reader) (*NGram, error) {
	var in ngramPayloadIn
	err := gob.NewDecoder(r).Decode(&in)
	var m *NGram
	if err == nil {
		m, err = in.model()
	}
	if err != nil {
		return nil, fmt.Errorf("baseline: load ngram: %w", err)
	}
	return m, nil
}

// model validates the payload, converting the string-keyed form, and
// builds its count tables.
func (in *ngramPayloadIn) model() (*NGram, error) {
	if in.Config.Order != 0 || in.Config.Discount != 0 || in.Counts != nil {
		if err := in.fromStringKeys(); err != nil {
			return nil, err
		}
	}
	m, err := newNGram(in.Vocab)
	if err != nil {
		return nil, err
	}
	if len(in.Grams) == 0 || len(in.Grams) != len(in.GramCounts) {
		return nil, fmt.Errorf("%d gram keys, %d counts", len(in.Grams), len(in.GramCounts))
	}
	base := uint64(in.Vocab + 1)
	for i, g := range in.Grams {
		ck, digit, c := g/base, g%base, in.GramCounts[i]
		switch {
		case i > 0 && g <= in.Grams[i-1]:
			return nil, fmt.Errorf("gram keys not strictly ascending at %d", i)
		case digit == 0 || ck >= base*base || (ck >= base && ck%base == 0):
			return nil, fmt.Errorf("gram key %d names no gram of at most %d actions in vocab %d", g, ngramOrder, in.Vocab)
		case !(c > 0) || math.IsInf(c, 1):
			return nil, fmt.Errorf("gram key %d has count %v", g, c)
		}
		m.add(g, c)
	}
	return m, nil
}

// fromStringKeys converts the string-keyed form into gram keys. Its
// vocabulary is at most 65,536: above that its keys truncated actions to
// 16 bits, and contexts that differ shared one count table.
func (in *ngramPayloadIn) fromStringKeys() error {
	if in.Config.Order != ngramOrder || in.Config.Discount != ngramDiscount || len(in.Counts) != ngramOrder {
		return fmt.Errorf("string-keyed counts of order %d, discount %v in %d tables: this build serves order %d, discount %v",
			in.Config.Order, in.Config.Discount, len(in.Counts), ngramOrder, ngramDiscount)
	}
	if in.Vocab > 1<<16 {
		return fmt.Errorf("string-keyed counts over vocab %d > 65536 truncated actions to 16 bits", in.Vocab)
	}
	base := uint64(in.Vocab + 1)
	grams := make(map[uint64]float64)
	for k, byCtx := range in.Counts {
		for key, cc := range byCtx {
			ck, ok := uint64(0), len(key) == 3*k
			for i := 0; ok && i < len(key); i += 3 {
				a := uint64(key[i]) | uint64(key[i+1])<<8
				ok = a < uint64(in.Vocab) && key[i+2] == ','
				ck = ck*base + a + 1
			}
			for a, c := range cc.Actions {
				ok = ok && a >= 0 && a < in.Vocab
				grams[ck*base+uint64(a+1)] = c
			}
			if !ok {
				return fmt.Errorf("order-%d context %q or an action counted after it outside vocab %d", k, key, in.Vocab)
			}
		}
	}
	in.Grams, in.GramCounts = sortedGrams(grams)
	return nil
}

// serializedHMM is the gob wire form of an HMM (row-major matrices).
type serializedHMM struct {
	States  int
	Vocab   int
	Initial []float64
	Trans   []float64
	Emit    []float64
}

// Save writes the HMM parameters to w with gob.
func (m *HMM) Save(w io.Writer) error {
	s := serializedHMM{
		States:  m.states,
		Vocab:   m.vocab,
		Initial: m.initial,
		Trans:   m.trans.Data,
		Emit:    m.emit.Data,
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("baseline: save hmm: %w", err)
	}
	return nil
}

// LoadHMM reads a model written by Save.
func LoadHMM(r io.Reader) (*HMM, error) {
	var s serializedHMM
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("baseline: load hmm: %w", err)
	}
	if s.States < 1 || s.Vocab < 1 || s.Vocab > actionlog.MaxVocabSize {
		return nil, fmt.Errorf("baseline: load hmm: %d states over vocab %d (vocab at most %d)",
			s.States, s.Vocab, actionlog.MaxVocabSize)
	}
	if len(s.Initial) != s.States || len(s.Trans) != s.States*s.States || len(s.Emit) != s.States*s.Vocab {
		return nil, fmt.Errorf("baseline: load hmm: parameter sizes %d/%d/%d inconsistent with %d states x %d vocab",
			len(s.Initial), len(s.Trans), len(s.Emit), s.States, s.Vocab)
	}
	m := &HMM{
		states:  s.States,
		vocab:   s.Vocab,
		initial: s.Initial,
		trans:   &tensor.Matrix{Rows: s.States, Cols: s.States, Data: s.Trans},
		emit:    &tensor.Matrix{Rows: s.States, Cols: s.Vocab, Data: s.Emit},
	}
	return m, nil
}
