package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/experiments"
	"misusedetect/internal/lda"
	"misusedetect/internal/logsim"
	"misusedetect/internal/nn"
	"misusedetect/internal/viz"
	"misusedetect/internal/wire"
)

func cmdGenerate(args []string) error {
	fs := newFlagSet("generate")
	out := fs.String("out", "events.jsonl", "output event log path")
	divisor := fs.Int("divisor", 10, "corpus scale divisor (1 = paper scale, ~15000 sessions)")
	seed := fs.Int64("seed", 1, "generation seed")
	misuse := fs.Int("misuse", 0, "number of scripted misuse sessions to inject")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus, err := logsim.Generate(logsim.ScaledConfig(*seed, *divisor))
	if err != nil {
		return err
	}
	sessions := corpus.Sessions
	if *misuse > 0 {
		var ids []string
		sessions, ids, err = logsim.InjectMisuse(sessions, *misuse, *seed+1)
		if err != nil {
			return err
		}
		fmt.Printf("injected %d misuse sessions: %v\n", len(ids), ids)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := actionlog.WriteEvents(f, actionlog.Flatten(sessions)); err != nil {
		return err
	}
	stats, err := actionlog.ComputeLengthStats(sessions, 98)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d sessions, %d actions vocabulary, mean length %.1f, p98 %.0f, max %.0f\n",
		*out, stats.Count, corpus.Vocabulary.Size(), stats.Mean, stats.PctValue, stats.Max)
	return nil
}

func loadSessions(path string) ([]*actionlog.Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := actionlog.ParseEvents(f)
	if err != nil {
		return nil, err
	}
	return actionlog.Reconstruct(events), nil
}

func cmdTrain(args []string) error {
	fs := newFlagSet("train")
	data := fs.String("data", "", "input event log (JSONL)")
	modelDir := fs.String("model", "./model", "output model directory")
	clusters := fs.Int("clusters", 13, "number of behavior clusters")
	scale := fs.String("scale", "default", "model scale: test|bench|default|paper")
	backend := fs.String("backend", "lstm", "per-cluster sequence-model backend: lstm|ngram|hmm")
	seed := fs.Int64("seed", 1, "training seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("train: -data is required")
	}
	sessions, err := loadSessions(*data)
	if err != nil {
		return err
	}
	vocab, err := actionlog.VocabularyFromSessions(sessions)
	if err != nil {
		return err
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	hidden, epochs, lr := scaleModel(sc)
	cfg := core.ScaledConfig(vocab.Size(), *clusters, hidden, epochs, *seed)
	cfg.LM.Trainer.LearningRate = lr
	cfg.Backend = *backend

	fmt.Printf("clustering %d sessions into %d behavior clusters...\n", len(sessions), *clusters)
	clustering, err := core.ClusterHistory(cfg, vocab, sessions)
	if err != nil {
		return err
	}
	parts, err := clustering.Partition()
	if err != nil {
		return err
	}
	for i, p := range parts {
		fmt.Printf("  cluster %d: %d sessions\n", i, len(p))
	}
	fmt.Printf("training per-cluster OC-SVMs and %s sequence models...\n", cfg.Backend)
	det, err := core.TrainDetector(cfg, vocab, parts, func(cluster int, st nn.EpochStats) {
		fmt.Printf("  cluster %d epoch %d: loss %.4f over %d predictions\n",
			cluster, st.Epoch, st.Loss, st.Examples)
	})
	if err != nil {
		return err
	}
	if err := det.Save(*modelDir); err != nil {
		return err
	}
	fmt.Printf("saved model to %s\n", *modelDir)
	return nil
}

// scaleModel maps an experiment scale to model hyperparameters.
func scaleModel(sc experiments.Scale) (hidden, epochs int, lr float64) {
	switch sc {
	case experiments.ScaleTest, experiments.ScaleBench:
		return 16, 4, 0.01
	case experiments.ScalePaper:
		return 256, 10, 0.001
	default:
		return 48, 6, 0.005
	}
}

func cmdScore(args []string) error {
	fs := newFlagSet("score")
	data := fs.String("data", "", "input event log (JSONL)")
	modelDir := fs.String("model", "./model", "model directory")
	top := fs.Int("top", 20, "print the N most suspicious sessions")
	jsonOut := fs.Bool("json", false, "emit JSON reports instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("score: -data is required")
	}
	det, _, err := core.LoadGeneration(*modelDir)
	if err != nil {
		return err
	}
	sessions, err := loadSessions(*data)
	if err != nil {
		return err
	}
	reports, err := det.RankSuspicious(sessions)
	if err != nil {
		return err
	}
	n := *top
	if n > len(reports) {
		n = len(reports)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range reports[:n] {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Printf("%d sessions scored; %d most suspicious:\n", len(reports), n)
	for i, r := range reports[:n] {
		fmt.Printf("%3d. %-24s cluster=%2d likelihood=%.4f loss=%.4f perplexity=%.1f\n",
			i+1, r.SessionID, r.Cluster, r.Score.AvgLikelihood, r.Score.AvgLoss, r.Score.Perplexity)
	}
	return nil
}

func cmdMonitor(args []string) error {
	fs := newFlagSet("monitor")
	data := fs.String("data", "", "input event log (JSONL)")
	modelDir := fs.String("model", "./model", "model directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("monitor: -data is required")
	}
	// Read the directory as the daemon does: verified against its
	// manifest, with its calibrated thresholds.json when present.
	det, fragment, err := core.LoadGeneration(*modelDir)
	if err != nil {
		return err
	}
	mcfg, _, err := core.ResolveMonitor("", *modelDir, fragment)
	if err != nil {
		return err
	}
	f, err := os.Open(*data)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := actionlog.ParseEvents(f)
	if err != nil {
		return err
	}
	// The daemon's engine, replayed in order: actions outside the model
	// vocabulary are logged and skipped exactly as misused logs them.
	eng, err := core.NewEngine(det, core.EngineConfig{
		Monitor: mcfg,
		Logf:    func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	alarms, err := eng.Replay(context.Background(), events)
	if err != nil {
		return err
	}
	sessions := make(map[string]bool)
	for _, ev := range events {
		sessions[ev.SessionID] = true
	}
	alarmed := make(map[string]bool)
	for _, a := range alarms {
		fmt.Printf("%s ALARM %-16s session=%s user=%s position=%d cluster=%d likelihood=%.4f\n",
			a.Time.Format("15:04:05"), a.Kind, a.SessionID, a.User, a.Position, a.Cluster, a.Likelihood)
		alarmed[a.SessionID] = true
	}
	fmt.Printf("monitored %d sessions, %d raised alarms\n", len(sessions), len(alarmed))
	return nil
}

func cmdViz(args []string) error {
	fs := newFlagSet("viz")
	data := fs.String("data", "", "input event log (JSONL)")
	out := fs.String("out", "view.json", "output view JSON path")
	topics := fs.Int("topics", 13, "LDA topic count for the ensemble center")
	seed := fs.Int64("seed", 1, "seed")
	ascii := fs.Bool("ascii", true, "render the projection to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("viz: -data is required")
	}
	sessions, err := loadSessions(*data)
	if err != nil {
		return err
	}
	vocab, err := actionlog.VocabularyFromSessions(sessions)
	if err != nil {
		return err
	}
	docs, err := vocab.EncodeAll(sessions)
	if err != nil {
		return err
	}
	ens, err := lda.FitEnsemble(docs, vocab.Size(), lda.EnsembleConfig{
		TopicCounts:  []int{*topics - 3, *topics, *topics + 3},
		RunsPerCount: 1,
		Iterations:   100,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	view, err := viz.Build(ens, vocab.Actions(), viz.DefaultConfig(*seed))
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(view, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d topics projected, %d matrix cells, %d chord links\n",
		*out, len(view.Projection), len(view.Matrix), len(view.Links))
	if *ascii {
		return view.RenderASCII(os.Stdout, 72, 18)
	}
	return nil
}

func cmdExperiment(args []string) error {
	fs := newFlagSet("experiment")
	id := fs.String("id", "all", "experiment id or 'all'")
	scale := fs.String("scale", "test", "scale: test|bench|default|paper")
	seed := fs.Int64("seed", 42, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("building %s-scale setup (seed %d)...\n", sc, *seed)
	setup, err := experiments.NewSetup(sc, *seed)
	if err != nil {
		return err
	}
	var results []*experiments.Result
	if *id == "all" {
		results, err = experiments.RunAll(setup)
		if err != nil {
			return err
		}
	} else {
		res, err := experiments.Run(*id, setup)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	for _, res := range results {
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := newFlagSet("inspect")
	modelDir := fs.String("model", "./model", "model directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	det, _, err := core.LoadGeneration(*modelDir)
	if err != nil {
		return err
	}
	fmt.Printf("model: %s\n", *modelDir)
	fmt.Printf("backend: %s\n", det.Backend())
	fmt.Printf("vocabulary: %d actions\n", det.Vocabulary().Size())
	fmt.Printf("clusters: %d\n", det.ClusterCount())
	for i, c := range det.Clusters() {
		fmt.Printf("  cluster %2d: %5d training sessions, %4d support vectors, model vocab %d\n",
			i, c.TrainSize, c.Router.SupportVectorCount(), c.Model.VocabSize())
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := newFlagSet("status")
	addr := fs.String("addr", "127.0.0.1:7074", "misused daemon address")
	timeout := fs.Duration("timeout", 5*time.Second, "dial/read timeout")
	jsonOut := fs.Bool("json", false, "print the raw status JSON line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reply wire.StatusReply
	line, err := wire.Call(*addr, "status", *timeout, &reply)
	if err != nil {
		return err
	}
	if *jsonOut {
		fmt.Println(string(line))
		return nil
	}
	st := reply.Status
	fmt.Printf("misused at %s (up %s)\n", *addr, reply.Uptime)
	fmt.Printf("  shards:           %d\n", st.Shards)
	fmt.Printf("  backend:          %s\n", st.Backend)
	fmt.Printf("  model version:    %d\n", st.ModelVersion)
	fmt.Printf("  reloads:          %d\n", st.Reloads)
	fmt.Printf("  events submitted: %d\n", st.EventsSubmitted)
	fmt.Printf("  events processed: %d\n", st.EventsProcessed)
	fmt.Printf("  events in flight: %d\n", st.EventsInFlight)
	fmt.Printf("  batches:          %d (%d scored inline)\n", st.BatchesSubmitted, st.BatchesInline)
	fmt.Printf("  actions interned: %d (%d learned from traffic)\n", st.InternedActions, st.LearnedActions)
	fmt.Printf("  sessions live:    %d (%d compacted)\n", st.SessionsLive, st.SessionsCompacted)
	fmt.Printf("  session memory:   %s", core.FormatByteSize(st.MemBytes))
	if st.MemBudget > 0 {
		fmt.Printf(" of %s budget", core.FormatByteSize(st.MemBudget))
	}
	if st.MaxSessions > 0 {
		fmt.Printf(" (cap %d sessions)", st.MaxSessions)
	}
	fmt.Println()
	fmt.Printf("  compactions:      %d (%d rehydrations)\n", st.Compactions, st.Rehydrations)
	fmt.Printf("  alarms raised:    %d\n", st.AlarmsRaised)
	fmt.Printf("  evictions:        %d\n", st.Evictions)
	if st.ShedSessions+st.ShedEvents+st.ShedEvictions+st.AlarmsShed > 0 {
		fmt.Printf("  shed:             %d sessions refused (%d events), %d budget evictions, %d alarms dropped\n",
			st.ShedSessions, st.ShedEvents, st.ShedEvictions, st.AlarmsShed)
	}
	fmt.Printf("  score errors:     %d\n", st.ScoreErrors)
	return nil
}

func cmdReload(args []string) error {
	fs := newFlagSet("reload")
	addr := fs.String("addr", "127.0.0.1:7074", "misused daemon address")
	timeout := fs.Duration("timeout", 30*time.Second, "dial/read timeout (model loading included)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reply wire.ReloadReply
	line, err := wire.Call(*addr, "reload", *timeout, &reply)
	if err != nil {
		return err
	}
	if reply.Reload.Version == 0 {
		return fmt.Errorf("reload: unexpected reply %q", line)
	}
	if reply.Reload.Canary {
		fmt.Printf("misused at %s staged canary: candidate version %d at fraction %.3f, backend %s, %d clusters (watch with misusectl canary)\n",
			*addr, reply.Reload.Version, reply.Reload.Fraction, reply.Reload.Backend, reply.Reload.Clusters)
	} else {
		fmt.Printf("misused at %s reloaded: model version %d, backend %s, %d clusters\n",
			*addr, reply.Reload.Version, reply.Reload.Backend, reply.Reload.Clusters)
	}
	return nil
}
