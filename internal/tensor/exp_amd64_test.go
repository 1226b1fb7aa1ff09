//go:build amd64

package tensor

import (
	"os"
	"os/exec"
	"testing"
)

// TestExpIntoDispatchesToKernel checks that ExpInto really runs the
// assembly kernel where math.Exp runs its FMA branch, so the
// bit-exactness tests are not silently comparing math.Exp with itself.
func TestExpIntoDispatchesToKernel(t *testing.T) {
	if !hasAVX2 || !detectFMA() {
		t.Skip("CPU without AVX2 and FMA: ExpInto always calls math.Exp")
	}
	if os.Getenv("GODEBUG") != "" {
		t.Skip("GODEBUG may switch math.Exp's FMA branch off")
	}
	if !hasExpFMA {
		t.Fatal("CPU has AVX2 and FMA but the exp kernel disagreed with math.Exp on its probe")
	}
}

// TestExpIntoFollowsMathWithoutFMA reruns the bit-exactness test in a
// child process whose GODEBUG switches FMA off, so math.Exp takes its
// other branch: ExpInto must notice and follow it.
func TestExpIntoFollowsMathWithoutFMA(t *testing.T) {
	if os.Getenv("GODEBUG") == "cpu.fma=off" {
		if hasExpFMA {
			t.Fatal("kernel enabled although math.Exp runs without FMA")
		}
		return
	}
	if testing.Short() {
		t.Skip("spawns a child test process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestExpIntoMatchesMathExp|TestExpIntoFollowsMathWithoutFMA)$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
