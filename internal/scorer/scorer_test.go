package scorer

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"misusedetect/internal/tensor"
)

// fakeScorer is a deterministic two-action Markov scorer for tests: the
// probability of action a after action b is Table[b][a].
type fakeScorer struct {
	Tag   string
	Table [][]float64
}

func (f *fakeScorer) Backend() string { return f.Tag }
func (f *fakeScorer) VocabSize() int  { return len(f.Table) }
func (f *fakeScorer) NewStream() Stream {
	return &fakeStream{f: f, dist: tensor.NewVector(len(f.Table)), prev: -1}
}
func (f *fakeScorer) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f.Table)
}

type fakeStream struct {
	f    *fakeScorer
	dist tensor.Vector
	prev int
}

func (s *fakeStream) Observe(action int) (float64, tensor.Vector, error) {
	if action < 0 || action >= len(s.f.Table) {
		return 0, nil, fmt.Errorf("fake: action %d outside vocab", action)
	}
	lik := -1.0
	if s.prev >= 0 {
		lik = s.f.Table[s.prev][action]
	}
	s.prev = action
	copy(s.dist, s.f.Table[action])
	return lik, s.dist, nil
}

func init() {
	Register("fake", func(r io.Reader) (Scorer, error) {
		f := &fakeScorer{Tag: "fake"}
		if err := gob.NewDecoder(r).Decode(&f.Table); err != nil {
			return nil, err
		}
		return f, nil
	})
}

func testFake() *fakeScorer {
	return &fakeScorer{Tag: "fake", Table: [][]float64{
		{0.1, 0.9},
		{0.8, 0.2},
	}}
}

func TestScoreStreamMatchesHandComputation(t *testing.T) {
	f := testFake()
	// Session 0 -> 1 -> 1 -> 0: likelihoods 0.9, 0.2, 0.8; argmax
	// predictions after 0 is 1 (0.9), after 1 is 0 (0.8): predictions
	// 1,0,0 vs actual 1,1,0 = 2/3 correct.
	sc, err := ScoreStream(f, []int{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	wantLik := (0.9 + 0.2 + 0.8) / 3
	if math.Abs(sc.AvgLikelihood-wantLik) > 1e-12 {
		t.Fatalf("AvgLikelihood = %v, want %v", sc.AvgLikelihood, wantLik)
	}
	wantLoss := -(math.Log(0.9) + math.Log(0.2) + math.Log(0.8)) / 3
	if math.Abs(sc.AvgLoss-wantLoss) > 1e-12 {
		t.Fatalf("AvgLoss = %v, want %v", sc.AvgLoss, wantLoss)
	}
	if math.Abs(sc.Perplexity-math.Exp(wantLoss)) > 1e-12 {
		t.Fatalf("Perplexity = %v, want %v", sc.Perplexity, math.Exp(wantLoss))
	}
	if math.Abs(sc.Accuracy-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 2/3", sc.Accuracy)
	}
	if sc.Steps != 3 {
		t.Fatalf("Steps = %d, want 3", sc.Steps)
	}
}

// TestScoreCorpusPools pins the corpus measures to pooling over scored
// positions, not averaging per-session means: a 2-action and a 9-action
// session weigh 1 and 8, sessions under 2 actions are skipped, and a
// corpus with nothing to score is an error.
func TestScoreCorpusPools(t *testing.T) {
	f := testFake()
	// Session {0, 1}: likelihood 0.9, argmax after 0 is 1 (correct).
	// Session of nine 0s: likelihood 0.1 at each of 8 positions, argmax
	// 1 every time (wrong). Pooled over 9 positions, the likelihood is
	// 1.7/9 and the accuracy 1/9; the mean of the two session means
	// would be 0.5 for both.
	zeros := make([]int, 9)
	sc, err := ScoreCorpus(f, [][]int{{1}, {0, 1}, nil, zeros})
	if err != nil {
		t.Fatal(err)
	}
	wantLoss := -(math.Log(0.9) + 8*math.Log(0.1)) / 9
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"AvgLikelihood", sc.AvgLikelihood, (0.9 + 8*0.1) / 9},
		{"AvgLoss", sc.AvgLoss, wantLoss},
		{"Perplexity", sc.Perplexity, math.Exp(wantLoss)},
		{"Accuracy", sc.Accuracy, 1.0 / 9},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if sc.Steps != 9 {
		t.Fatalf("Steps = %d, want 9", sc.Steps)
	}
	if _, err := ScoreCorpus(f, [][]int{{0}, {1}, nil}); err == nil {
		t.Fatal("a corpus of sessions under 2 actions must fail")
	}
	if _, err := ScoreCorpus(f, nil); err == nil {
		t.Fatal("an empty corpus must fail")
	}
}

func TestScoreStreamValidation(t *testing.T) {
	f := testFake()
	if _, err := ScoreStream(f, []int{0}); err == nil {
		t.Fatal("single-action session must fail")
	}
	if _, err := ScoreStream(f, []int{0, 7}); err == nil {
		t.Fatal("out-of-vocab action must fail")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	f := testFake()
	var buf bytes.Buffer
	if err := Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Backend() != "fake" || back.VocabSize() != 2 {
		t.Fatalf("loaded backend %q vocab %d", back.Backend(), back.VocabSize())
	}
	a, err := ScoreStream(f, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScoreStream(back, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("loaded scorer scores differently: %+v vs %+v", a, b)
	}
}

// envelope crafts a raw header for error-path tests.
func envelope(magic string, version uint16, tag string, payload []byte) []byte {
	b := []byte(magic)
	b = binary.BigEndian.AppendUint16(b, version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(tag)))
	b = append(b, tag...)
	return append(b, payload...)
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", []byte("MD"), "truncated"},
		{"bad magic", envelope("XXXX", FormatVersion, "fake", nil), "bad magic"},
		{"future version", envelope(Magic, 99, "fake", nil), "format version 99"},
		{"zero tag length", envelope(Magic, FormatVersion, "", nil), "tag length"},
		{"truncated tag", append(envelope(Magic, FormatVersion, "", nil)[:6], 0, 8), "truncated"},
		{"unknown backend", envelope(Magic, FormatVersion, "alien", nil), `unknown backend "alien"`},
		{"corrupt payload", envelope(Magic, FormatVersion, "fake", []byte{0xff, 0x00}), "payload"},
	}
	for _, tc := range cases {
		_, err := Decode(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s: Decode succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestEncodeRejectsInvalidTag(t *testing.T) {
	if err := Encode(io.Discard, &fakeScorer{Tag: ""}); err == nil {
		t.Fatal("empty backend tag must fail")
	}
	if err := Encode(io.Discard, &fakeScorer{Tag: strings.Repeat("x", 200)}); err == nil {
		t.Fatal("oversized backend tag must fail")
	}
}

func TestRegistryLists(t *testing.T) {
	found := false
	for _, b := range Backends() {
		if b == "fake" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Backends() = %v, missing %q", Backends(), "fake")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register("fake", func(io.Reader) (Scorer, error) { return nil, nil })
}
