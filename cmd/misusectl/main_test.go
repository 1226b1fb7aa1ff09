package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

	// A manifest that stops checksumming cluster 1, whose model is
	// swapped for cluster 0's, is refused too: every cluster's files must
	// be listed before any is read.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(bin, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ngModel, "cluster-01-model.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(ngModel, "manifest.json")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	delete(man["checksums"].(map[string]any), "cluster-01-router.gob")
	delete(man["checksums"].(map[string]any), "cluster-01-model.bin")
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"inspect", "-model", ngModel}); err == nil || !strings.Contains(err.Error(), "no checksum for cluster-01-router.gob") {
		t.Fatalf("inspect on a directory with an unchecksummed cluster: err = %v, want a refusal naming the file", err)
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

// cannedDaemon answers the first line of every connection to a local
// listener with reply, until the test ends, and returns its address.
func cannedDaemon(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			bufio.NewReader(conn).ReadString('\n')
			io.WriteString(conn, reply)
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// TestCLIAdaptVerdict: misusectl adapt -addr exits zero when the
// daemon's cycle installed its generation, swapped in or published to
// the canary slot, and nonzero with the reason when the guardrail
// refused it.
func TestCLIAdaptVerdict(t *testing.T) {
	for _, tc := range []struct {
		name, report, wantErr string
	}{
		{"swapped", `"swapped":true,"new_version":2`, ""},
		{"canaried", `"swapped":false,"canaried":true,"new_version":2`, ""},
		{"refused", `"swapped":false,"refused":"held-out AUC regressed"`, "cycle refused: held-out AUC regressed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := cannedDaemon(t, `{"adapt":{"reason":"manual",`+tc.report+"}}\n")
			err := run([]string{"adapt", "-once", "-addr", addr, "-timeout", "10s"})
			if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("adapt -addr against a %s cycle: err = %v, want %q", tc.name, err, tc.wantErr)
			}
		})
	}
}
