// Package golden compares test output with committed golden files. The
// goldens pin outputs that are deterministic functions of the code —
// trained weights, evaluation reports, experiment tables — so a change
// that claims to keep every bit proves it by leaving them untouched.
//
// One test flag re-bases every golden of the packages under test:
//
//	go test ./internal/harness ./internal/experiments -run Golden -update
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run's output")

// SkipOffAMD64 skips the test on other architectures: the goldens hold
// amd64 bits, and elsewhere Go may fuse multiply-adds (arm64) and
// tensor's exp_noasm.go replaces the AVX2 exp.
func SkipOffAMD64(t testing.TB) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens hold amd64 bits: arm64 may fuse multiply-adds, and exp_noasm.go replaces the AVX2 exp")
	}
}

// Check compares got with the golden file at path, or rewrites the file
// under -update. A mismatch names the first differing line.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	line := func(ls [][]byte) string {
		if i < len(ls) {
			return string(ls[i])
		}
		return "<end of output>"
	}
	t.Errorf("output differs from %s at line %d:\n got: %s\nwant: %s\n(a change that moves these bits on purpose re-bases the file with -update and says why)",
		path, i+1, line(gl), line(wl))
}
