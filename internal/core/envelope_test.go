package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"strings"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/nn"
	"misusedetect/internal/scorer"
)

// fuzzSessions is a tiny deterministic training corpus for seed models.
func fuzzSessions() [][]int {
	sessions := make([][]int, 8)
	for i := range sessions {
		s := make([]int, 10)
		for j := range s {
			s[j] = (i + j) % 5
		}
		sessions[i] = s
	}
	return sessions
}

// seedEnvelopes encodes one valid envelope per backend, so
// the fuzzer starts from well-formed files of every payload format.
func seedEnvelopes(f *testing.F) [][]byte {
	f.Helper()
	ng, err := baseline.TrainNGram(fuzzSessions(), 5)
	if err != nil {
		f.Fatal(err)
	}
	hm, err := baseline.TrainHMM(fuzzSessions(), 5, baseline.HMMConfig{States: 2, Iterations: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	net, err := nn.NewLanguageNetwork(nn.NetworkConfig{InputSize: 5, HiddenSize: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, s := range []scorer.Scorer{ng, hm, net} {
		var buf bytes.Buffer
		if err := encodeModel(&buf, s); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzEnvelopeDecode fuzzes the model-file loader end to end: the
// envelope header parse plus every backend's payload decoder
// (gob into LSTM weights, n-gram count tables, HMM parameters). Decode
// of attacker-controlled bytes must never panic and never hand back a
// half-valid model: on success the scorer must have a known tag, a
// sane vocabulary (at most actionlog.MaxVocabSize, the bound every
// loader keeps), and a usable stream. The nn load-dimension bounds exist
// because this target surfaced that a 30-byte file declaring
// billion-unit layers forced gigabyte allocations before any weight
// check.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, env := range seedEnvelopes(f) {
		f.Add(env)
		// Truncations and single-byte corruptions of valid files are the
		// mutations most likely to reach deep decoder states.
		f.Add(env[:len(env)/2])
		flip := append([]byte(nil), env...)
		flip[len(flip)/3] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte(envelopeMagic))
	f.Add([]byte("MDSC\x00\x01\x00\x05lstm"))
	header := append([]byte(envelopeMagic), 0, envelopeVersion, 0, 4)
	f.Add(append(header, []byte("husk")...))
	var big [8]byte
	binary.BigEndian.PutUint16(big[:2], envelopeVersion)
	f.Add(append([]byte(envelopeMagic), append(big[:2], 0xff, 0xff)...))
	// A well-formed n-gram payload over a vocabulary above the bound.
	var ng bytes.Buffer
	if err := gob.NewEncoder(&ng).Encode(struct {
		Vocab      int
		Grams      []uint64
		GramCounts []float64
	}{2_000_000, []uint64{1}, []float64{1}}); err != nil {
		f.Fatal(err)
	}
	tag := baseline.BackendNGram
	ngHeader := append([]byte(envelopeMagic), 0, envelopeVersion, 0, byte(len(tag)))
	f.Add(append(append(ngHeader, tag...), ng.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound the per-exec cost, not the coverage
		}
		s, err := decodeModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if lookupBackend(s.Backend()) == nil {
			t.Fatalf("decoded scorer has unknown backend %q", s.Backend())
		}
		if v := s.VocabSize(); v < 1 || v > actionlog.MaxVocabSize {
			t.Fatalf("decoded scorer has vocabulary %d", v)
		}
		// The decoded model must be servable, not just parseable: one
		// stream step on a valid action must not panic.
		st := s.NewStream()
		if _, err := st.ObserveLikelihood(0); err != nil {
			return
		}
	})
}

// envelope crafts a raw header for error-path tests.
func envelope(magic string, version uint16, tag string, payload []byte) []byte {
	b := []byte(magic)
	b = binary.BigEndian.AppendUint16(b, version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(tag)))
	b = append(b, tag...)
	return append(b, payload...)
}

// TestEnvelopeRoundTrip pins the file layout, a fixed header and then
// the backend's own Save bytes, and checks that the decoded model
// scores as the saved one did.
func TestEnvelopeRoundTrip(t *testing.T) {
	net, err := nn.NewLanguageNetwork(nn.NetworkConfig{InputSize: 5, HiddenSize: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf, payload bytes.Buffer
	if err := encodeModel(&buf, net); err != nil {
		t.Fatal(err)
	}
	if err := net.Save(&payload); err != nil {
		t.Fatal(err)
	}
	if want := envelope("MDSC", 1, "lstm", payload.Bytes()); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("envelope starts %q, want %q", buf.Bytes()[:12], want[:12])
	}
	back, err := decodeModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Backend() != nn.BackendLSTM || back.VocabSize() != 5 {
		t.Fatalf("loaded backend %q vocab %d", back.Backend(), back.VocabSize())
	}
	a, err := scorer.ScoreStream(net, []int{0, 1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := scorer.ScoreStream(back, []int{0, 1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("loaded scorer scores differently: %+v vs %+v", a, b)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", []byte("MD"), "truncated"},
		{"bad magic", envelope("XXXX", envelopeVersion, "ngram", nil), "bad magic"},
		{"future version", envelope(envelopeMagic, 99, "ngram", nil), "format version 99"},
		{"zero tag length", envelope(envelopeMagic, envelopeVersion, "", nil), "tag length"},
		{"truncated tag", append(envelope(envelopeMagic, envelopeVersion, "", nil)[:6], 0, 8), "truncated"},
		{"unknown backend", envelope(envelopeMagic, envelopeVersion, "alien", nil), `unknown backend "alien"`},
		{"corrupt payload", envelope(envelopeMagic, envelopeVersion, "ngram", []byte{0xff, 0x00}), "payload"},
	}
	for _, tc := range cases {
		_, err := decodeModel(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s: decodeModel succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// taggedScorer is a model of any backend tag; it saves nothing.
type taggedScorer string

func (s taggedScorer) Backend() string        { return string(s) }
func (taggedScorer) VocabSize() int           { return 1 }
func (taggedScorer) NewStream() scorer.Stream { return nil }
func (taggedScorer) Save(io.Writer) error     { return nil }

// TestEncodeRejectsInvalidTag: only a backend of the table is written,
// so no file is written that this build cannot read back.
func TestEncodeRejectsInvalidTag(t *testing.T) {
	for _, tag := range []string{"", strings.Repeat("x", 200), "alien"} {
		if err := encodeModel(io.Discard, taggedScorer(tag)); err == nil {
			t.Fatalf("backend tag %q must fail", tag)
		}
	}
}

// TestScorerRoundTrips saves both classical backends through the tagged
// envelope and checks the loaded models score identically.
func TestScorerRoundTrips(t *testing.T) {
	sessions := make([][]int, 10)
	for i := range sessions {
		sessions[i] = make([]int, 16)
		for j := range sessions[i] {
			sessions[i][j] = j % 6
		}
	}
	session := []int{0, 1, 2, 3, 4, 5, 0, 1}

	ng, err := baseline.TrainNGram(sessions, 6)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := baseline.TrainHMM(sessions, 6, baseline.HMMConfig{States: 3, Iterations: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []scorer.Scorer{ng, hm} {
		var buf bytes.Buffer
		if err := encodeModel(&buf, m); err != nil {
			t.Fatalf("%s: %v", m.Backend(), err)
		}
		back, err := decodeModel(&buf)
		if err != nil {
			t.Fatalf("%s: %v", m.Backend(), err)
		}
		if back.Backend() != m.Backend() || back.VocabSize() != m.VocabSize() {
			t.Fatalf("%s: loaded as %s vocab %d", m.Backend(), back.Backend(), back.VocabSize())
		}
		a, err := scorer.ScoreStream(m, session)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scorer.ScoreStream(back, session)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: loaded model scores differently:\n%+v\n%+v", m.Backend(), a, b)
		}
	}
}
