package harness

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"misusedetect/internal/golden"
)

// TestEvalCorpusGolden holds the corpus evaluation report (what
// `misusectl eval -source corpus -json` reports at its default flags)
// to the committed bytes, with train_seconds zeroed. Every trained
// weight, calibrated floor and replayed alarm feeds the report, so a
// change that moves any trained bit or detection decision fails it.
func TestEvalCorpusGolden(t *testing.T) {
	golden.SkipOffAMD64(t)
	tr, err := CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Eval(tr, EvalOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range report.Backends {
		report.Backends[i].TrainSeconds = 0
	}
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "eval-corpus.golden.json"), append(got, '\n'))
}
