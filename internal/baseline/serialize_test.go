package baseline

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"misusedetect/internal/actionlog"
)

// legacySessions is the corpus testdata/ngram-legacy.gob was trained on,
// saved in the string-keyed form of builds before integer keys.
func legacySessions() [][]int {
	rng := rand.New(rand.NewSource(19))
	sessions := make([][]int, 14)
	for i := range sessions {
		s := make([]int, 2+rng.Intn(18))
		for j := range s {
			if j > 0 && rng.Intn(3) > 0 {
				s[j] = (s[j-1] + 1 + i%2) % 7
			} else {
				s[j] = rng.Intn(7)
			}
		}
		sessions[i] = s
	}
	return sessions
}

func savedNGram(t *testing.T, m *NGram) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadNGramLegacy loads a model saved in the string-keyed form: it
// must score every context of up to two actions as the same corpus
// trained today does, bit for bit, and re-save to that model's bytes.
func TestLoadNGramLegacy(t *testing.T) {
	fixture, err := os.ReadFile("testdata/ngram-legacy.gob")
	if err != nil {
		t.Fatal(err)
	}
	old, err := LoadNGram(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	const vocab = 7
	m, err := TrainNGram(legacySessions(), vocab)
	if err != nil {
		t.Fatal(err)
	}
	contexts := [][]int{nil}
	for a := 0; a < vocab; a++ {
		contexts = append(contexts, []int{a})
		for b := 0; b < vocab; b++ {
			contexts = append(contexts, []int{a, b})
		}
	}
	for _, ctx := range contexts {
		for a := 0; a < vocab; a++ {
			got, err := old.Prob(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := m.Prob(ctx, a)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("P(%d|%v): legacy file %v, trained %v", a, ctx, got, want)
			}
		}
	}
	if !bytes.Equal(savedNGram(t, old), savedNGram(t, m)) {
		t.Fatal("the re-saved legacy model differs from the trained model's bytes")
	}

	var in ngramPayloadIn
	if err := gob.NewDecoder(bytes.NewReader(fixture)).Decode(&in); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*ngramPayloadIn){
		"order 2":          func(in *ngramPayloadIn) { in.Config.Order = 2 },
		"discount 0.4":     func(in *ngramPayloadIn) { in.Config.Discount = 0.4 },
		"vocab over 65536": func(in *ngramPayloadIn) { in.Vocab = 1<<16 + 1 },
		"two tables":       func(in *ngramPayloadIn) { in.Counts = in.Counts[:2] },
		"zero order":       func(in *ngramPayloadIn) { in.Config.Order = 0 },
		"key outside vocab": func(in *ngramPayloadIn) {
			in.Counts[1]["\x07\x00,"] = struct{ Actions map[int]float64 }{map[int]float64{0: 1}}
		},
		"action outside vocab": func(in *ngramPayloadIn) {
			in.Counts[0][""].Actions[7] = 1
		},
	} {
		var bad ngramPayloadIn
		if err := gob.NewDecoder(bytes.NewReader(fixture)).Decode(&bad); err != nil {
			t.Fatal(err)
		}
		mutate(&bad)
		if _, err := LoadNGram(bytes.NewReader(gobBytes(t, &bad))); err == nil {
			t.Errorf("legacy payload with %s must be refused", name)
		}
	}
}

// TestNGramSaveCanonical pins the saved bytes as a function of the
// counts, and the loader's checks on the sorted form.
func TestNGramSaveCanonical(t *testing.T) {
	a, err := TrainNGram(legacySessions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainNGram(legacySessions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	saved := savedNGram(t, a)
	if !bytes.Equal(saved, savedNGram(t, b)) || !bytes.Equal(saved, savedNGram(t, a)) {
		t.Fatal("two saves of one model's counts differ")
	}
	back, err := LoadNGram(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedNGram(t, back), saved) {
		t.Fatal("a loaded model re-saves to different bytes")
	}

	// Over vocab 7 a gram key is three base-8 digits: the older and the
	// newer context action, then the action, each stored as action+1.
	for _, c := range []struct {
		name string
		p    ngramPayload
		want string
	}{
		{"vocab 0", ngramPayload{Vocab: 0}, "vocab 0"},
		{"vocab above the bound", ngramPayload{Vocab: actionlog.MaxVocabSize + 1, Grams: []uint64{1}, GramCounts: []float64{1}}, "vocab 1048577"},
		{"no grams", ngramPayload{Vocab: 7}, "0 gram keys, 0 counts"},
		{"fewer counts", ngramPayload{Vocab: 7, Grams: []uint64{1, 9}, GramCounts: []float64{1}}, "2 gram keys, 1 counts"},
		{"keys out of order", ngramPayload{Vocab: 7, Grams: []uint64{9, 1}, GramCounts: []float64{1, 1}}, "not strictly ascending"},
		{"duplicate key", ngramPayload{Vocab: 7, Grams: []uint64{9, 9}, GramCounts: []float64{1, 1}}, "not strictly ascending"},
		{"action digit 0", ngramPayload{Vocab: 7, Grams: []uint64{1, 8}, GramCounts: []float64{1, 1}}, "gram key 8 names no"},
		{"context digit 0", ngramPayload{Vocab: 7, Grams: []uint64{1, 8*8 + 1}, GramCounts: []float64{1, 1}}, "gram key 65 names no"},
		{"context of 3", ngramPayload{Vocab: 7, Grams: []uint64{1, 8 * 8 * 8}, GramCounts: []float64{1, 1}}, "gram key 512 names no"},
		{"count 0", ngramPayload{Vocab: 7, Grams: []uint64{1, 9}, GramCounts: []float64{1, 0}}, "has count 0"},
		{"negative count", ngramPayload{Vocab: 7, Grams: []uint64{1, 9}, GramCounts: []float64{1, -1}}, "has count -1"},
		{"count NaN", ngramPayload{Vocab: 7, Grams: []uint64{1, 9}, GramCounts: []float64{1, math.NaN()}}, "has count NaN"},
		{"count +Inf", ngramPayload{Vocab: 7, Grams: []uint64{1, 9}, GramCounts: []float64{1, math.Inf(1)}}, "has count +Inf"},
	} {
		_, err := LoadNGram(bytes.NewReader(gobBytes(t, &c.p)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("payload with %s: err = %v, want %q", c.name, err, c.want)
		}
	}
	ok := ngramPayload{Vocab: 7, Grams: []uint64{1, 9, 8*8 + 9}, GramCounts: []float64{1, 1, 0.5}}
	if _, err := LoadNGram(bytes.NewReader(gobBytes(t, &ok))); err != nil {
		t.Fatalf("a well-formed payload is refused: %v", err)
	}
}
