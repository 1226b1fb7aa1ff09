package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misusedetect/internal/golden"
)

// TestModelHashesGolden trains a test-scale model directory per backend
// on one generated log and holds the SHA-256 of every file it writes,
// manifest included, to the committed list. A saved model is a function
// of the training data, so a change that moves a trained bit or a byte
// of any file format fails it, and two trainings agree byte for byte.
func TestModelHashesGolden(t *testing.T) {
	golden.SkipOffAMD64(t)
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	if err := run([]string{"generate", "-out", events, "-divisor", "100", "-seed", "3", "-misuse", "3"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	var got strings.Builder
	for _, backend := range []string{"lstm", "ngram", "hmm"} {
		model := filepath.Join(dir, backend)
		if err := run([]string{"train", "-data", events, "-model", model, "-backend", backend, "-clusters", "3", "-scale", "test"}); err != nil {
			t.Fatalf("train %s: %v", backend, err)
		}
		files, err := os.ReadDir(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(model, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%x  %s/%s\n", sha256.Sum256(data), backend, f.Name())
		}
	}
	golden.Check(t, filepath.Join("testdata", "model-hashes.golden.txt"), []byte(got.String()))
}
