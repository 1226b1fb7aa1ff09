package core

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/corpus"
)

// summaryCollector is a thread-safe OnSessionEnd sink.
type summaryCollector struct {
	mu   sync.Mutex
	sums []SessionSummary
}

func (c *summaryCollector) add(s SessionSummary) {
	c.mu.Lock()
	c.sums = append(c.sums, s)
	c.mu.Unlock()
}

func (c *summaryCollector) byID() map[string]SessionSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]SessionSummary, len(c.sums))
	for _, s := range c.sums {
		out[s.SessionID] = s
	}
	return out
}

// TestEngineSummaryDeterminism extends the determinism anchor to the
// session summaries the adaptation pipeline consumes: across shard
// counts and wave sizes the engine emits the same summaries field for
// field, recorded tokens included, and each agrees with a serial
// SessionMonitor run of its session.
func TestEngineSummaryDeterminism(t *testing.T) {
	det := corpusDetector(t)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	sessions := c.ActionSessions()
	// Unknown actions must be counted and recorded the same way too.
	for _, i := range []int{0, 7} {
		s := sessions[i]
		s.Actions = append(s.Actions[:2:2], append([]string{"ActionNotInVocab"}, s.Actions[2:]...)...)
	}
	events := actionlog.Flatten(sessions)
	mcfg := DefaultMonitorConfig()

	serial := make(map[string]SessionSummary, len(sessions))
	alarms, unknown := 0, 0
	for _, s := range sessions {
		mon, err := det.NewSessionMonitor(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := SessionSummary{SessionID: s.ID}
		for _, a := range s.Actions {
			tok := det.Token(a)
			if tok < 0 {
				sum.Unknown++
				continue
			}
			step, err := mon.ObserveToken(tok)
			if err != nil {
				t.Fatal(err)
			}
			sum.Alarms += len(step.Alarms)
		}
		sum.Cluster, sum.Observed = mon.cluster, mon.position
		sum.MinSmoothed, sum.LastSmoothed = mon.warmMin, mon.smoothed
		serial[s.ID] = sum
		alarms += sum.Alarms
		unknown += sum.Unknown
	}
	if alarms == 0 || unknown != 2 {
		t.Fatalf("serial run: %d alarms, %d unknown actions; the comparison would be vacuous", alarms, unknown)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var want []SessionSummary
	for _, shards := range []int{1, 3, 8} {
		for _, scoreBatch := range []int{1, 64} {
			col := &summaryCollector{}
			eng, err := NewEngine(det, EngineConfig{
				Shards:         shards,
				QueueDepth:     64,
				ScoreBatch:     scoreBatch,
				Monitor:        mcfg,
				RecordSessions: true,
				OnSessionEnd:   col.add,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Replay(ctx, events)
			eng.Close()
			if err != nil {
				t.Fatalf("shards=%d scoreBatch=%d: %v", shards, scoreBatch, err)
			}
			got := col.sums
			sort.Slice(got, func(i, j int) bool { return got[i].SessionID < got[j].SessionID })
			if len(got) != len(sessions) {
				t.Fatalf("shards=%d scoreBatch=%d: %d summaries for %d sessions", shards, scoreBatch, len(got), len(sessions))
			}
			for i, g := range got {
				ref := serial[g.SessionID]
				if g.Cluster != ref.Cluster || g.Observed != ref.Observed || g.Unknown != ref.Unknown ||
					g.Alarms != ref.Alarms || g.MinSmoothed != ref.MinSmoothed || g.LastSmoothed != ref.LastSmoothed {
					t.Fatalf("shards=%d scoreBatch=%d: session %s summary %+v, serial monitor %+v",
						shards, scoreBatch, g.SessionID, g, ref)
				}
				if want == nil {
					continue
				}
				w := want[i]
				if !reflect.DeepEqual(g.Session(), w.Session()) {
					t.Fatalf("shards=%d scoreBatch=%d: session %s decodes differently", shards, scoreBatch, g.SessionID)
				}
				g.Snap, w.Snap = nil, nil
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("shards=%d scoreBatch=%d: summary %+v, first engine %+v", shards, scoreBatch, g, w)
				}
			}
			if want == nil {
				want = got
			}
		}
	}
}

func TestEngineSessionSummariesOnFlush(t *testing.T) {
	det := smallNGramDetector(t)
	col := &summaryCollector{}
	engine, err := NewEngine(det, EngineConfig{
		Shards:         3,
		Monitor:        MonitorConfig{LikelihoodFloor: 0, EWMAAlpha: 0.3, WarmupActions: 2},
		RecordSessions: true,
		OnSessionEnd:   col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	ctx := context.Background()
	submit := func(id string, actions ...string) {
		for i, a := range actions {
			ev := actionlog.Event{
				Time: time.Unix(int64(i), 0), User: "u-" + id, SessionID: id, Action: a,
			}
			if err := submitEvents(ctx, engine, []actionlog.Event{ev}, nil); err != nil {
				t.Fatalf("submit %s: %v", id, err)
			}
		}
	}
	submit("s-a", "a0", "a1", "a2", "a3", "a0", "a1")
	// One action outside the vocabulary: scoring skips it, the summary
	// must count it as unknown, and the recorded session keeps it.
	submit("s-b", "b0", "b1", "ActionNotInVocab", "b2", "b3", "b0")
	if err := engine.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	engine.Flush()

	sums := col.byID()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	a, b := sums["s-a"], sums["s-b"]
	if a.Observed != 6 || a.Unknown != 0 {
		t.Fatalf("s-a observed/unknown = %d/%d", a.Observed, a.Unknown)
	}
	if b.Observed != 5 || b.Unknown != 1 {
		t.Fatalf("s-b observed/unknown = %d/%d", b.Observed, b.Unknown)
	}
	if a.MinSmoothed < 0 {
		t.Fatalf("s-a MinSmoothed = %v, want post-warmup minimum", a.MinSmoothed)
	}
	if a.ModelVersion != 1 || b.ModelVersion != 1 {
		t.Fatalf("model versions = %d/%d", a.ModelVersion, b.ModelVersion)
	}
	if got := len(b.Tokens); got != 6 {
		t.Fatalf("s-b recorded %d tokens, want all 6 submitted", got)
	}
	if b.Snap == nil {
		t.Fatal("recorded summary carries no interner snapshot")
	}
	sess := b.Session()
	if sess == nil || sess.ID != "s-b" || sess.User != "u-s-b" || len(sess.Actions) != 6 {
		t.Fatalf("rebuilt session = %+v", sess)
	}
	// The out-of-vocabulary action was learned by the edge interner, so
	// the rebuilt session preserves it by name.
	if sess.Actions[2] != "ActionNotInVocab" {
		t.Fatalf("rebuilt session lost the unknown action: %v", sess.Actions)
	}
	if st := engine.Stats(); st.SessionsLive != 0 {
		t.Fatalf("sessions live after flush = %d", st.SessionsLive)
	}

	// A second flush with no live sessions must not emit anything new.
	engine.Flush()
	if got := len(col.byID()); got != 2 {
		t.Fatalf("summaries after idle flush = %d", got)
	}
}

func TestEngineCloseEmitsSummaries(t *testing.T) {
	det := smallNGramDetector(t)
	col := &summaryCollector{}
	engine, err := NewEngine(det, EngineConfig{
		Shards:       2,
		Monitor:      MonitorConfig{LikelihoodFloor: 0, EWMAAlpha: 0.3, WarmupActions: 2},
		OnSessionEnd: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, a := range []string{"a0", "a1", "a2", "a3"} {
		ev := actionlog.Event{Time: time.Unix(int64(i), 0), SessionID: "s-close", Action: a}
		if err := submitEvents(ctx, engine, []actionlog.Event{ev}, nil); err != nil {
			t.Fatal(err)
		}
	}
	engine.Close()
	sums := col.byID()
	if len(sums) != 1 || sums["s-close"].Observed != 4 {
		t.Fatalf("summaries after close = %+v", sums)
	}
	// Without RecordSessions the summary must not carry tokens.
	if sums["s-close"].Tokens != nil || sums["s-close"].Snap != nil {
		t.Fatal("tokens recorded without RecordSessions")
	}
}

func TestRegistrySwapCalibratedPinsMonitor(t *testing.T) {
	det := smallNGramDetector(t)
	reg, err := NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Current().Monitor != nil {
		t.Fatal("initial generation must carry no calibrated monitor")
	}
	calibrated := DefaultMonitorConfig()
	calibrated.LikelihoodFloor = 1 // absurdly high: every session alarms
	calibrated.ClusterFloors = []float64{1, 1}
	mv, err := reg.Swap(det, &calibrated, "recalibrated")
	if err != nil {
		t.Fatal(err)
	}
	if mv.Monitor == nil || mv.Monitor.LikelihoodFloor != 1 {
		t.Fatalf("swapped monitor = %+v", mv.Monitor)
	}
	bad := calibrated
	bad.EWMAAlpha = 7
	if _, err := reg.Swap(det, &bad, "bad"); err == nil {
		t.Fatal("invalid calibrated monitor must be rejected")
	}
	if reg.Current() != mv {
		t.Fatal("refused swap replaced the serving generation")
	}

	// New sessions on an engine over this registry must score under the
	// generation's floors, not the engine-wide default (floor 0 = never
	// alarm). With a 1.0 floor every post-warmup action alarms.
	engine, err := NewEngineRegistry(reg, EngineConfig{
		Shards:  1,
		Monitor: MonitorConfig{LikelihoodFloor: 0, EWMAAlpha: 0.3, WarmupActions: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	var events []actionlog.Event
	for i, a := range []string{"a0", "a1", "a2", "a3", "a0", "a1"} {
		events = append(events, actionlog.Event{Time: time.Unix(int64(i), 0), SessionID: "s-cal", Action: a})
	}
	alarms, err := engine.Replay(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("calibrated generation floor 1.0 raised no alarms")
	}
	for _, a := range alarms {
		if a.ModelVersion != 2 {
			t.Fatalf("alarm pinned to version %d, want 2", a.ModelVersion)
		}
	}
}

func TestRegistryLoadFromInstallsThresholds(t *testing.T) {
	det := smallNGramDetector(t)
	dir := filepath.Join(t.TempDir(), "model")
	if err := det.Save(dir); err != nil {
		t.Fatal(err)
	}
	calibrated := DefaultMonitorConfig()
	calibrated.LikelihoodFloor = 0.123
	if err := SaveMonitorConfig(filepath.Join(dir, ThresholdsFile), calibrated); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(det)
	if err != nil {
		t.Fatal(err)
	}
	loaded, monitor, err := LoadGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := reg.Swap(loaded, monitor, dir)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Monitor == nil || mv.Monitor.LikelihoodFloor != 0.123 {
		t.Fatalf("the reloaded generation did not install thresholds: %+v", mv.Monitor)
	}
}

// encodeGroups encodes per-cluster session groups through vocab, the
// form RetrainDetector takes.
func encodeGroups(t *testing.T, vocab *actionlog.Vocabulary, groups ...[]*actionlog.Session) [][]EncodedSession {
	t.Helper()
	out := make([][]EncodedSession, len(groups))
	for ci, g := range groups {
		for _, s := range g {
			enc, err := vocab.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			out[ci] = append(out[ci], EncodedSession{ID: s.ID, Actions: enc})
		}
	}
	return out
}

func TestRetrainDetectorReusesStarvedClusters(t *testing.T) {
	old := smallNGramDetector(t)
	vocab, sessions := testCorpus(t, 20)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(vocab.Size())
	cfg.Backend = baseline.BackendNGram

	// Fresh data for cluster 0 only: cluster 1 must keep the old models.
	fresh := encodeGroups(t, vocab, clusters[0], nil)
	det, stats, err := RetrainDetector(old, cfg, vocab, fresh, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Retrained) != 1 || stats.Retrained[0] != 0 || len(stats.Reused) != 1 || stats.Reused[0] != 1 {
		t.Fatalf("retrain stats = %+v, want cluster 0 retrained, cluster 1 reused", stats)
	}
	if det.Clusters()[1].Model != old.Clusters()[1].Model {
		t.Fatal("starved cluster 1 did not reuse the old model")
	}
	if det.Clusters()[0].Model == old.Clusters()[0].Model {
		t.Fatal("cluster 0 was not retrained")
	}

	// Group-count mismatch and fully starved retrains must fail.
	if _, _, err := RetrainDetector(old, cfg, vocab, fresh[:1], 2); err == nil {
		t.Fatal("mismatched group count must fail")
	}
	if _, _, err := RetrainDetector(old, cfg, vocab, make([][]EncodedSession, 2), 2); err == nil {
		t.Fatal("fully starved retrain must fail")
	}
}

func TestRetrainDetectorVocabularyGrowth(t *testing.T) {
	old := smallNGramDetector(t)
	_, sessions := testCorpus(t, 20)
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the vocabulary and splice the new action into the training
	// sessions so the retrained models can score it.
	grown, err := actionlog.NewVocabulary(append(old.Vocabulary().Actions(), "zz-new"))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range clusters {
		for _, s := range clusters[ci] {
			s.Actions = append(s.Actions, "zz-new")
		}
	}
	cfg := testConfig(grown.Size())
	cfg.Backend = baseline.BackendNGram

	// With the vocabulary grown, a starved cluster cannot reuse stale
	// models: it is distilled — refit on sessions sampled from its own
	// stale model — and the result must score the grown vocabulary.
	distilledDet, stats, err := RetrainDetector(old, cfg, grown, encodeGroups(t, grown, clusters[0], nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Distilled) != 1 || stats.Distilled[0] != 1 {
		t.Fatalf("retrain stats = %+v, want cluster 1 distilled", stats)
	}
	if got := distilledDet.Clusters()[1].Model.VocabSize(); got != grown.Size() {
		t.Fatalf("distilled cluster vocab = %d, want %d", got, grown.Size())
	}
	if got := distilledDet.Clusters()[1].TrainSize; got != old.Clusters()[1].TrainSize {
		t.Fatalf("distilled TrainSize = %d, want the stale generation's %d", got, old.Clusters()[1].TrainSize)
	}

	det, stats, err := RetrainDetector(old, cfg, grown, encodeGroups(t, grown, clusters...), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Retrained) != 2 || len(stats.Distilled) != 0 {
		t.Fatalf("retrain stats = %+v, want both retrained", stats)
	}
	if det.Vocabulary().Size() != grown.Size() {
		t.Fatalf("vocabulary size = %d", det.Vocabulary().Size())
	}
	// The new detector must score sessions containing the new action.
	mon, err := det.NewSessionMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"a0", "a1", "zz-new", "a2"} {
		tok := det.Token(a)
		if tok < 0 {
			t.Fatalf("grown vocabulary misses %q", a)
		}
		if _, err := mon.ObserveToken(tok); err != nil {
			t.Fatalf("monitor on grown vocabulary: %v", err)
		}
	}
	// A shrunken vocabulary is not a superset: refuse.
	shrunk, err := actionlog.NewVocabulary([]string{"a0", "a1", "a2", "a3"})
	if err != nil {
		t.Fatal(err)
	}
	small := testConfig(shrunk.Size())
	small.Backend = baseline.BackendNGram
	_, _, err = RetrainDetector(old, small, shrunk, make([][]EncodedSession, len(clusters)), 2)
	if err == nil || !strings.Contains(err.Error(), "superset") {
		t.Fatalf("non-superset vocabulary must fail, got %v", err)
	}
}
