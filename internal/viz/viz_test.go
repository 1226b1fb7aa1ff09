package viz

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"misusedetect/internal/lda"
)

func fitTestEnsemble(t *testing.T) (*lda.Ensemble, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	docs := make([][]int, 30)
	for i := range docs {
		base := (i % 2) * 5
		doc := make([]int, 12)
		for j := range doc {
			doc[j] = base + rng.Intn(5)
		}
		docs[i] = doc
	}
	ens, err := lda.FitEnsemble(docs, 10, lda.EnsembleConfig{
		TopicCounts: []int{2, 3}, RunsPerCount: 1, Iterations: 60, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 10)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return ens, names
}

func TestBuildValidation(t *testing.T) {
	ens, _ := fitTestEnsemble(t)
	if _, err := Build(ens, []string{"too", "few"}, DefaultConfig(1)); err == nil {
		t.Fatal("name-count mismatch must fail")
	}
}

func TestBuildViewComplete(t *testing.T) {
	ens, names := fitTestEnsemble(t)
	v, err := Build(ens, names, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Projection) != len(ens.Topics) {
		t.Fatalf("projection has %d points for %d topics", len(v.Projection), len(ens.Topics))
	}
	if len(v.Fans) != len(ens.Topics) {
		t.Fatalf("%d fans for %d topics", len(v.Fans), len(ens.Topics))
	}
	if len(v.Matrix) == 0 {
		t.Fatal("empty topic-action matrix")
	}
	for _, c := range v.Matrix {
		if c.Opacity < 0 || c.Opacity > 1 {
			t.Fatalf("opacity %v outside [0,1]", c.Opacity)
		}
		if c.Action < 0 || c.Action >= 10 {
			t.Fatalf("matrix action %d out of range", c.Action)
		}
	}
	for _, l := range v.Links {
		if l.Shared < 1 {
			t.Fatal("link without shared actions")
		}
		if l.A == l.B {
			t.Fatal("self link")
		}
	}
}

func TestBuildMatrixRowsPeakAtOne(t *testing.T) {
	ens, names := fitTestEnsemble(t)
	v, err := Build(ens, names, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	peak := map[int]float64{}
	for _, c := range v.Matrix {
		if c.Opacity > peak[c.Topic] {
			peak[c.Topic] = c.Opacity
		}
	}
	for topic, p := range peak {
		if p < 0.999 {
			t.Fatalf("topic %d peak opacity %v, want 1 (row-normalized)", topic, p)
		}
	}
}

func TestViewJSONRoundTrip(t *testing.T) {
	ens, names := fitTestEnsemble(t)
	v, err := Build(ens, names, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back View
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Projection) != len(v.Projection) || len(back.Matrix) != len(v.Matrix) {
		t.Fatal("JSON round trip lost data")
	}
}

func TestRenderASCII(t *testing.T) {
	ens, names := fitTestEnsemble(t)
	v, err := Build(ens, names, DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.RenderASCII(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Topic projection") {
		t.Fatalf("missing header in %q", out)
	}
	if !strings.Contains(out, "chord links") {
		t.Fatal("missing chord section")
	}
	if err := v.RenderASCII(&buf, 2, 2); err == nil {
		t.Fatal("tiny canvas must fail")
	}
}

func TestRenderASCIIEmptyView(t *testing.T) {
	v := &View{}
	var buf bytes.Buffer
	if err := v.RenderASCII(&buf, 20, 6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no topics)") {
		t.Fatal("empty view should say so")
	}
}
