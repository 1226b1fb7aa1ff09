package nn

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"
)

// TestLoadLanguageNetworkRejectsHugeConfig pins the load-path allocation
// bound: a tiny gob stream declaring billion-unit layers must fail with a
// descriptive error instead of allocating O(dim^2) weight matrices (the
// unbounded-allocation bug surfaced by FuzzEnvelopeDecode).
func TestLoadLanguageNetworkRejectsHugeConfig(t *testing.T) {
	for _, cfg := range []NetworkConfig{
		{InputSize: 1 << 30, HiddenSize: 4},
		{InputSize: 4, HiddenSize: 1 << 30},
		{InputSize: 1 << 33, HiddenSize: 1 << 33}, // rows*cols would overflow
		// Each dimension under the per-dim cap, but the implied gate
		// matrix would still span terabytes: the product bound catches it.
		{InputSize: 1 << 19, HiddenSize: 1 << 19},
		{InputSize: 2, HiddenSize: 1 << 19},
		// 4*hidden*(in+hidden) wraps past 2^32 here: the division-form
		// comparison must still reject it on 32-bit platforms.
		{InputSize: 1 << 20, HiddenSize: 1 << 10},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&serializedNetwork{Config: cfg}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadLanguageNetwork(&buf); err == nil {
			t.Fatalf("config %+v must be rejected", cfg)
		}
	}
}

// TestNetworkSaveLoadRoundTrip: a legitimate network survives the bound.
func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	n, err := NewLanguageNetwork(NetworkConfig{InputSize: 5, HiddenSize: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLanguageNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.ForwardAll([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ForwardAll([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("step %d output %d changed across save/load", i, j)
			}
		}
	}
}

// TestLoadRejectsReducedPrecisionFiles: files written by the former f16
// and int8 serving path carry their weights in payload fields this
// package no longer reads. Loading one must fail with an error naming
// the precision tag, not panic or come back with zeroed weights.
func TestLoadRejectsReducedPrecisionFiles(t *testing.T) {
	// legacyParam mirrors the old wire form, payload fields included.
	type legacyParam struct {
		Name       string
		Rows, Cols int
		F16        []uint16
		Q          []byte
		Scales     []float64
	}
	type legacyNetwork struct {
		Config NetworkConfig
		Params []legacyParam
		Quant  string
	}
	for _, tag := range []string{"f16", "int8"} {
		legacy := legacyNetwork{Config: NetworkConfig{InputSize: 3, HiddenSize: 2}, Quant: tag}
		legacy.Params = []legacyParam{{Name: "lstm.wx", Rows: 8, Cols: 3, F16: make([]uint16, 24),
			Q: make([]byte, 24), Scales: make([]float64, 8)}}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
			t.Fatal(err)
		}
		_, err := LoadLanguageNetwork(&buf)
		if err == nil {
			t.Fatalf("%s file loaded", tag)
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+tag+`"`) || !strings.Contains(msg, "re-save") {
			t.Fatalf("%s file: error %q does not name the tag and the remedy", tag, msg)
		}
	}
}

// TestLoadedNetworkHoldsWeightsOnce pins a served network's memory: a
// loaded V = 300, H = 256 network raises the GC-settled heap by little
// more than its weights' bytes (no gradient buffers, and no initialized
// network the decoded weights are copied into), and neither a load nor
// a Fit leaves a gradient buffer behind.
func TestLoadedNetworkHoldsWeightsOnce(t *testing.T) {
	src, err := NewLanguageNetwork(NetworkConfig{InputSize: 300, HiddenSize: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	var weightBytes uint64
	for _, p := range src.Params() {
		weightBytes += 8 * uint64(len(p.W.Data))
	}
	src = nil
	// Two collections: the second frees what the first moved into the
	// sync.Pool victim caches.
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	net, err := LoadLanguageNetwork(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(saved)
	runtime.KeepAlive(net)
	if limit := weightBytes*105/100 + 64<<10; after > before+limit {
		t.Fatalf("loading %d weight bytes grew the heap by %d, want at most %d", weightBytes, after-before, limit)
	}
	noGrads := func(when string) {
		t.Helper()
		for _, p := range net.Params() {
			if p.G != nil {
				t.Fatalf("%s: %s holds a gradient buffer", when, p.Name)
			}
		}
	}
	noGrads("after load")
	tr, err := NewTrainer(net, TrainerConfig{Epochs: 1, BatchSize: 2, LearningRate: 0.01, WindowSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit([][]int{randomSeq(12, 300, 1), randomSeq(9, 300, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	noGrads("after Fit")
}
