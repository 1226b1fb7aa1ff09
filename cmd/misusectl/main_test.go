package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd exercises the full tool flow: generate a small corpus,
// train a test-scale model, inspect it, score the corpus, and replay it
// through the monitor.
func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	model := filepath.Join(dir, "model")

	if err := run([]string{"generate", "-out", events, "-divisor", "60", "-seed", "3", "-misuse", "2"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := os.Stat(events); err != nil {
		t.Fatalf("event log missing: %v", err)
	}
	if err := run([]string{"train", "-data", events, "-model", model, "-clusters", "4", "-scale", "test", "-seed", "2"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(filepath.Join(model, "manifest.json")); err != nil {
		t.Fatalf("model manifest missing: %v", err)
	}
	if err := run([]string{"inspect", "-model", model}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := run([]string{"score", "-data", events, "-model", model, "-top", "5"}); err != nil {
		t.Fatalf("score: %v", err)
	}
	if err := run([]string{"score", "-data", events, "-model", model, "-top", "3", "-json"}); err != nil {
		t.Fatalf("score json: %v", err)
	}
	if err := run([]string{"monitor", "-data", events, "-model", model}); err != nil {
		t.Fatalf("monitor: %v", err)
	}

	// The same flow with a classical backend selected by flag.
	ngModel := filepath.Join(dir, "model-ngram")
	if err := run([]string{"train", "-data", events, "-model", ngModel, "-clusters", "4", "-scale", "test", "-seed", "2", "-backend", "ngram"}); err != nil {
		t.Fatalf("train ngram: %v", err)
	}
	if err := run([]string{"inspect", "-model", ngModel}); err != nil {
		t.Fatalf("inspect ngram: %v", err)
	}
	if err := run([]string{"score", "-data", events, "-model", ngModel, "-top", "5"}); err != nil {
		t.Fatalf("score ngram: %v", err)
	}
	if err := run([]string{"monitor", "-data", events, "-model", ngModel}); err != nil {
		t.Fatalf("monitor ngram: %v", err)
	}

	// monitor reads a model directory as the daemon does: it loads the
	// directory's thresholds.json (a corrupt one is an error, not
	// skipped) and refuses an artifact that fails its checksums.
	thresholds := filepath.Join(ngModel, "thresholds.json")
	if err := os.WriteFile(thresholds, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"monitor", "-data", events, "-model", ngModel}); err == nil {
		t.Fatal("monitor must fail on a corrupt thresholds.json")
	}
	if err := os.Remove(thresholds); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(ngModel, "cluster-00-model.bin")
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(bin, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"monitor", "-data", events, "-model", ngModel}); err == nil {
		t.Fatal("monitor must refuse a tampered model directory")
	}
	// Every command that reads a model directory goes through the same
	// checksum gate before decoding a weight.
	for _, args := range [][]string{
		{"score", "-data", events, "-model", ngModel},
		{"inspect", "-model", ngModel},
		{"eval", "-model", ngModel, "-source", "sim", "-json"},
		{"adapt", "-once", "-model", ngModel, "-data", events},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "SHA-256 mismatch") {
			t.Fatalf("%s on a tampered model directory: err = %v, want a checksum refusal", args[0], err)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand must fail")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand must fail")
	}
	if err := run([]string{"train"}); err == nil {
		t.Fatal("train without -data must fail")
	}
	if err := run([]string{"score"}); err == nil {
		t.Fatal("score without -data must fail")
	}
	if err := run([]string{"monitor"}); err == nil {
		t.Fatal("monitor without -data must fail")
	}
	if err := run([]string{"experiment", "-scale", "bogus"}); err == nil {
		t.Fatal("bad scale must fail")
	}
	if err := run([]string{"reload", "-addr", "127.0.0.1:1", "-timeout", "100ms"}); err == nil {
		t.Fatal("reload against a dead daemon must fail")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatal("help must succeed")
	}
}

func TestCLIViz(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	view := filepath.Join(dir, "view.json")
	if err := run([]string{"generate", "-out", events, "-divisor", "100", "-seed", "5"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"viz", "-data", events, "-out", view, "-topics", "6", "-ascii=false"}); err != nil {
		t.Fatalf("viz: %v", err)
	}
	if _, err := os.Stat(view); err != nil {
		t.Fatalf("view JSON missing: %v", err)
	}
	if err := run([]string{"viz"}); err == nil {
		t.Fatal("viz without -data must fail")
	}
}
