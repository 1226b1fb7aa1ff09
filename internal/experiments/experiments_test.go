package experiments

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"misusedetect/internal/golden"
)

// sharedSetup builds the test-scale setup once; experiments are read-only
// consumers except for TrainBaselines, which is idempotent.
var (
	setupOnce sync.Once
	setupVal  *Setup
	setupErr  error
)

func testSetup(t *testing.T) *Setup {
	t.Helper()
	setupOnce.Do(func() {
		setupVal, setupErr = NewSetup(ScaleTest, 42)
		if setupErr == nil {
			setupErr = setupVal.TrainBaselines()
		}
	})
	if setupErr != nil {
		t.Fatalf("setup: %v", setupErr)
	}
	return setupVal
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
	}{
		{"test", ScaleTest}, {"default", ScaleDefault}, {"paper", ScalePaper},
	} {
		got, err := ParseScale(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Errorf("Scale.String() = %q, want %q", got.String(), c.in)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale must fail")
	}
	if Scale(99).String() == "" {
		t.Fatal("unknown scale must format")
	}
}

func TestSetupInvariants(t *testing.T) {
	s := testSetup(t)
	if len(s.Clusters) < 2 {
		t.Fatalf("only %d clusters", len(s.Clusters))
	}
	for i := 1; i < len(s.Clusters); i++ {
		if len(s.Clusters[i-1]) > len(s.Clusters[i]) {
			t.Fatal("clusters not in ascending size order")
		}
	}
	if len(s.Splits) != len(s.Clusters) {
		t.Fatal("split count mismatch")
	}
	if s.Detector.ClusterCount() != len(s.Clusters) {
		t.Fatal("detector cluster count mismatch")
	}
	if s.GlobalLM == nil || len(s.SubsetLMs) != len(s.Clusters) {
		t.Fatal("baselines missing after TrainBaselines")
	}
	// Idempotence.
	if err := s.TrainBaselines(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCoversAllFigures(t *testing.T) {
	names := Names()
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8-9", "fig10", "fig11-12", "top20"}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("registry missing %s", w)
		}
	}
	if _, err := Run("fig99", testSetup(t)); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// results caches each experiment's result, so the shape tests and
// TestExperimentsGolden run every experiment once between them.
var (
	resultsMu sync.Mutex
	results   = map[string]*Result{}
)

func runExperiment(t *testing.T, name string) *Result {
	t.Helper()
	resultsMu.Lock()
	defer resultsMu.Unlock()
	if res, ok := results[name]; ok {
		return res
	}
	res, err := Run(name, testSetup(t))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	results[name] = res
	if res.Name != name {
		t.Fatalf("result name %q, want %q", res.Name, name)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s produced no rows", name)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("%s render: %v", name, err)
	}
	if !strings.Contains(buf.String(), name) {
		t.Fatalf("%s render missing header", name)
	}
	return res
}

func TestFig3Shape(t *testing.T) {
	res := runExperiment(t, "fig3")
	// Histogram must be right-skewed: first bucket largest.
	first, _ := strconv.Atoi(res.Rows[0][1])
	for _, row := range res.Rows[1:] {
		c, _ := strconv.Atoi(row[1])
		if c > first {
			t.Fatalf("bucket %s larger than first bucket: session lengths not right-skewed", row[0])
		}
	}
}

func TestFig4Shape(t *testing.T) {
	res := runExperiment(t, "fig4")
	if len(res.Rows) != len(testSetup(t).Clusters) {
		t.Fatalf("fig4 rows %d != clusters %d", len(res.Rows), len(testSetup(t).Clusters))
	}
	// Diversity: most models should beat their cross-cluster average.
	wins := 0
	for _, row := range res.Rows {
		own, _ := strconv.ParseFloat(row[2], 64)
		other, _ := strconv.ParseFloat(row[3], 64)
		if own > other {
			wins++
		}
	}
	if wins*2 <= len(res.Rows) {
		t.Fatalf("only %d/%d cluster models beat the cross-cluster average", wins, len(res.Rows))
	}
}

func TestFig5Shape(t *testing.T) {
	res := runExperiment(t, "fig5")
	wins := 0
	for _, row := range res.Rows {
		own, _ := strconv.ParseFloat(row[2], 64)
		subset, _ := strconv.ParseFloat(row[4], 64)
		if own > subset {
			wins++
		}
	}
	// The paper's headline: informed clusters beat arbitrary subsets.
	if wins*2 <= len(res.Rows) {
		t.Fatalf("cluster model beats subset on only %d/%d clusters", wins, len(res.Rows))
	}
}

func TestFig6Shape(t *testing.T) {
	res := runExperiment(t, "fig6")
	// Max score >= right score at every reported position.
	for _, row := range res.Rows {
		right, _ := strconv.ParseFloat(row[2], 64)
		maxS, _ := strconv.ParseFloat(row[3], 64)
		if maxS < right-1e-9 {
			t.Fatalf("max OC-SVM score %v < right score %v at position %s", maxS, right, row[0])
		}
	}
	// Scores must decline for long prefixes (paper's observation).
	firstRight, _ := strconv.ParseFloat(res.Rows[0][2], 64)
	lastRight, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][2], 64)
	if lastRight >= firstRight {
		t.Fatalf("OC-SVM score did not decay with length: %v -> %v", firstRight, lastRight)
	}
}

func TestFig7Shape(t *testing.T) {
	res := runExperiment(t, "fig7")
	for _, row := range res.Rows {
		step, _ := strconv.ParseFloat(row[2], 64)
		vote, _ := strconv.ParseFloat(row[3], 64)
		if step < 0 || step > 1 || vote < 0 || vote > 1 {
			t.Fatalf("likelihoods out of range: %v", row)
		}
	}
}

func TestFig89Shape(t *testing.T) {
	res := runExperiment(t, "fig8-9")
	if len(res.Rows) != 2 {
		t.Fatalf("fig8-9 has %d rows", len(res.Rows))
	}
	realLike, _ := strconv.ParseFloat(res.Rows[0][2], 64)
	randLike, _ := strconv.ParseFloat(res.Rows[1][2], 64)
	realLoss, _ := strconv.ParseFloat(res.Rows[0][3], 64)
	randLoss, _ := strconv.ParseFloat(res.Rows[1][3], 64)
	if realLike <= randLike {
		t.Fatalf("real likelihood %v <= random %v", realLike, randLike)
	}
	if realLoss >= randLoss {
		t.Fatalf("real loss %v >= random %v", realLoss, randLoss)
	}
}

func TestFig10Shape(t *testing.T) {
	res := runExperiment(t, "fig10")
	wins := 0
	for _, row := range res.Rows {
		own, _ := strconv.ParseFloat(row[2], 64)
		subset, _ := strconv.ParseFloat(row[4], 64)
		if own < subset {
			wins++
		}
	}
	if wins*2 <= len(res.Rows) {
		t.Fatalf("cluster model lower loss on only %d/%d clusters", wins, len(res.Rows))
	}
}

func TestFig1112Shape(t *testing.T) {
	res := runExperiment(t, "fig11-12")
	// Two rows (likelihood + loss) per reported cluster.
	if len(res.Rows)%2 != 0 {
		t.Fatalf("fig11-12 rows %d not paired", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		if res.Rows[i][1] != "likelihood" || res.Rows[i+1][1] != "loss" {
			t.Fatalf("unexpected metric ordering at row %d", i)
		}
	}
}

func TestTop20Shape(t *testing.T) {
	res := runExperiment(t, "top20")
	if len(res.Rows) == 0 || len(res.Rows) > 20 {
		t.Fatalf("top20 has %d rows", len(res.Rows))
	}
	// The paper's §IV-D criterion: the most suspicious sessions are the
	// ones full of alarming profile-modification actions. Require a
	// majority of the top-20 to carry the alarming mark.
	alarming := 0
	for _, row := range res.Rows {
		if row[3] == "yes" {
			alarming++
		}
	}
	if alarming*2 <= len(res.Rows) {
		t.Fatalf("only %d/%d top-suspicious sessions contain alarming actions", alarming, len(res.Rows))
	}
}

func TestAblations(t *testing.T) {
	for _, name := range []string{"ablation-weighted", "ablation-trend", "ablation-perplexity"} {
		runExperiment(t, name)
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{Name: "x", Title: "t", Headers: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 7)
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hello 7") || !strings.Contains(out, "bb") {
		t.Fatalf("render = %q", out)
	}
}

func TestExtensions(t *testing.T) {
	for _, name := range []string{"extension-auc", "extension-training-mode"} {
		res := runExperiment(t, name)
		if name == "extension-auc" {
			// The pipeline must separate random sessions nearly perfectly.
			for _, row := range res.Rows {
				if row[0] == "routed cluster LSTMs" && row[1] == "random" {
					auc, _ := strconv.ParseFloat(row[2], 64)
					if auc < 0.9 {
						t.Fatalf("pipeline AUC vs random = %v, want >= 0.9", auc)
					}
				}
			}
		}
	}
}

// TestExperimentsGolden holds every experiment's rendered table at test
// scale to the committed bytes, with the wall-time cells blanked. The
// tables read every model the shared Setup trains, in sequence and
// windowed mode, so a change that moves a trained bit fails it.
func TestExperimentsGolden(t *testing.T) {
	golden.SkipOffAMD64(t)
	var buf bytes.Buffer
	for _, name := range Names() {
		res := *runExperiment(t, name)
		res.Rows = blankColumn(res.Headers, res.Rows, "wall time")
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	golden.Check(t, filepath.Join("testdata", "experiments-test.golden.txt"), buf.Bytes())
}

// blankColumn returns a copy of rows with the cells under header
// replaced by "-".
func blankColumn(headers []string, rows [][]string, header string) [][]string {
	col := -1
	for i, h := range headers {
		if h == header {
			col = i
		}
	}
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = append([]string(nil), row...)
		if col >= 0 && col < len(row) {
			out[i][col] = "-"
		}
	}
	return out
}
