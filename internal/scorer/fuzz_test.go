package scorer_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/lm"
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

// seedEnvelopes encodes one valid envelope per registered backend, so
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
	for _, s := range []scorer.Scorer{ng, hm, lm.New(net)} {
		var buf bytes.Buffer
		if err := scorer.Encode(&buf, s); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzEnvelopeDecode fuzzes the model-file loader end to end: the
// envelope header parse plus every registered backend's payload decoder
// (gob into LSTM weights, n-gram count tables, HMM parameters). Decode
// of attacker-controlled bytes must never panic and never hand back a
// half-valid model: on success the scorer must have a registered tag, a
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
	f.Add([]byte(scorer.Magic))
	f.Add([]byte("MDSC\x00\x01\x00\x05lstm"))
	header := append([]byte(scorer.Magic), 0, scorer.FormatVersion, 0, 4)
	f.Add(append(header, []byte("husk")...))
	var big [8]byte
	binary.BigEndian.PutUint16(big[:2], scorer.FormatVersion)
	f.Add(append([]byte(scorer.Magic), append(big[:2], 0xff, 0xff)...))
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
	ngHeader := append([]byte(scorer.Magic), 0, scorer.FormatVersion, 0, byte(len(tag)))
	f.Add(append(append(ngHeader, tag...), ng.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound the per-exec cost, not the coverage
		}
		s, err := scorer.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		found := false
		for _, b := range scorer.Backends() {
			if s.Backend() == b {
				found = true
			}
		}
		if !found {
			t.Fatalf("decoded scorer has unregistered backend %q", s.Backend())
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
