package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/nn"
	"misusedetect/internal/ocsvm"
	"misusedetect/internal/scorer"
	"misusedetect/internal/tensor"
)

// ClusterModel is one behavior cluster's pair of models: the OC-SVM that
// recognizes sessions of the cluster and the sequence model that scores
// their normality.
type ClusterModel struct {
	// Router is the cluster's OC-SVM.
	Router *ocsvm.Model
	// Model is the cluster's sequence model — LSTM, n-gram, or HMM,
	// selected by Config.Backend. Every scoring path goes through this
	// interface.
	Model scorer.Scorer
	// LM is Model itself when the backend is the LSTM, as its concrete
	// type, and nil for the n-gram and the HMM. Only the benchmark's
	// LSTM micro rows read it; everything else scores through Model.
	LM *nn.LanguageNetwork
	// TrainSize is the number of training sessions, used for reporting
	// (the paper orders clusters by size).
	TrainSize int
}

// Detector is the trained prediction-phase pipeline: it routes a new
// session to its behavior cluster via the OC-SVM scores and scores its
// normality with the routed cluster's sequence model.
type Detector struct {
	cfg        Config
	vocab      *actionlog.Vocabulary
	featurizer *ocsvm.Featurizer
	clusters   []ClusterModel
	// router holds every cluster's OC-SVM in the form the first-K vote
	// runs on.
	router *ocsvm.Router
}

// newDetector assembles a detector from its clusters and builds the
// routing vote's table over their OC-SVMs: every constructor (train,
// retrain, load) ends here.
func newDetector(cfg Config, vocab *actionlog.Vocabulary, feat *ocsvm.Featurizer, clusters []ClusterModel) (*Detector, error) {
	models := make([]*ocsvm.Model, len(clusters))
	for i := range clusters {
		if got := clusters[i].Router.Dim(); got != vocab.Size() {
			return nil, fmt.Errorf("core: cluster %d OC-SVM takes %d features, vocabulary has %d actions", i, got, vocab.Size())
		}
		models[i] = clusters[i].Router
	}
	router, err := ocsvm.NewRouter(models, cfg.RouteVoteActions)
	if err != nil {
		return nil, fmt.Errorf("core: build router: %w", err)
	}
	return &Detector{cfg: cfg, vocab: vocab, featurizer: feat, clusters: clusters, router: router}, nil
}

// TrainDetector fits one OC-SVM and one sequence model (of the
// configured backend) per cluster. clusterTrain holds each cluster's
// training sessions. The optional progress callback receives
// "cluster c, epoch stats" lines (LSTM backend only; the classical
// backends train in one pass). The clusters train in parallel through
// LargestFirst; the callback is never entered concurrently, and each
// cluster's epochs arrive in ascending order, interleaved with the
// other clusters'.
func TrainDetector(cfg Config, vocab *actionlog.Vocabulary, clusterTrain [][]*actionlog.Session, progress func(cluster int, st nn.EpochStats)) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(clusterTrain) == 0 {
		return nil, fmt.Errorf("core: no clusters to train on")
	}
	cfg.Backend = cfg.backend()
	feat, err := ocsvm.NewFeaturizer(vocab.Size())
	if err != nil {
		return nil, fmt.Errorf("core: build featurizer: %w", err)
	}
	if progress != nil {
		var mu sync.Mutex
		report := progress
		progress = func(ci int, st nn.EpochStats) {
			mu.Lock()
			defer mu.Unlock()
			report(ci, st)
		}
	}
	sizes := make([]int, len(clusterTrain))
	for ci, sessions := range clusterTrain {
		for _, s := range sessions {
			sizes[ci] += len(s.Actions)
		}
	}
	clusters := make([]ClusterModel, len(clusterTrain))
	if err := LargestFirst(sizes, func(ci int) error {
		var err error
		clusters[ci], err = trainCluster(&cfg, vocab, feat, clusterTrain[ci], ci, progress)
		return err
	}); err != nil {
		return nil, err
	}
	return newDetector(cfg, vocab, feat, clusters)
}

// LargestFirst calls job(i) once for every i in [0, len(sizes)) on up to
// GOMAXPROCS goroutines, starting the jobs in descending size order
// (ties in index order): the longest-processing-time order, so the
// biggest jobs do not run last on one core while the others idle. It is
// the offline training fan-out: each job must own its seeds and write
// only its own result slot, so the order the jobs run in moves no bit.
// It returns the error of the lowest-index job that failed — the error
// a serial loop in index order returns — and skips the jobs above a
// known failure, which that loop would never reach.
func LargestFirst(sizes []int, job func(i int) error) error {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	errs := make([]error, len(sizes))
	var (
		mu     sync.Mutex
		next   int
		failed = len(sizes) // lowest failed index so far
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for next < len(order) {
			i := order[next]
			next++
			if i < failed {
				return i, true
			}
		}
		return 0, false
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(sizes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				if errs[i] = job(i); errs[i] != nil {
					mu.Lock()
					failed = min(failed, i)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed < len(sizes) {
		return errs[failed]
	}
	return nil
}

// trainCluster fits one cluster's OC-SVM router and sequence model: the
// per-cluster body shared by TrainDetector and distillCluster.
func trainCluster(cfg *Config, vocab *actionlog.Vocabulary, feat *ocsvm.Featurizer, sessions []*actionlog.Session, ci int, progress func(int, nn.EpochStats)) (ClusterModel, error) {
	encoded, err := vocab.EncodeAll(actionlog.FilterMinLength(sessions, cfg.MinSessionLength))
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: encode cluster %d: %w", ci, err)
	}
	return trainClusterEncoded(cfg, vocab, feat, encoded, ci, progress)
}

// trainClusterEncoded fits one cluster from sessions already encoded to
// vocabulary indices (the token-native retrain path skips the string
// encode entirely).
func trainClusterEncoded(cfg *Config, vocab *actionlog.Vocabulary, feat *ocsvm.Featurizer, encoded [][]int, ci int, progress func(int, nn.EpochStats)) (ClusterModel, error) {
	if len(encoded) == 0 {
		return ClusterModel{}, fmt.Errorf("core: cluster %d has no trainable sessions", ci)
	}
	features, err := feat.Corpus(encoded)
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: featurize cluster %d: %w", ci, err)
	}
	ocCfg := cfg.OCSVM
	ocCfg.Seed = cfg.OCSVM.Seed + int64(ci)
	router, err := ocsvm.Train(features, ocCfg)
	if err != nil {
		return ClusterModel{}, fmt.Errorf("core: train OC-SVM %d: %w", ci, err)
	}
	cm := ClusterModel{Router: router, TrainSize: len(encoded)}
	if err := cm.train(cfg, vocab, encoded, ci, progress); err != nil {
		return ClusterModel{}, err
	}
	return cm, nil
}

// train fits the cluster's sequence model with the configured backend.
func (cm *ClusterModel) train(cfg *Config, vocab *actionlog.Vocabulary, encoded [][]int, ci int, progress func(int, nn.EpochStats)) error {
	b := lookupBackend(cfg.Backend)
	if b == nil {
		return fmt.Errorf("core: unknown backend %q", cfg.Backend)
	}
	model, err := b.train(cfg, vocab.Size(), encoded, ci, progress)
	if err != nil {
		return fmt.Errorf("core: train %s %d: %w", b.tag, ci, err)
	}
	cm.setModel(model)
	return nil
}

// setModel installs the cluster's sequence model and its typed LSTM
// handle.
func (cm *ClusterModel) setModel(model scorer.Scorer) {
	cm.Model = model
	cm.LM, _ = model.(*nn.LanguageNetwork)
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Backend returns the detector's sequence-model backend tag.
func (d *Detector) Backend() string { return d.cfg.backend() }

// Vocabulary returns the detector's action vocabulary.
func (d *Detector) Vocabulary() *actionlog.Vocabulary { return d.vocab }

// Token resolves an action name to the detector's vocabulary index, or
// actionlog.TokenUnknown (-1) for actions outside the vocabulary: the
// cold-path edge interning for callers that drive a SessionMonitor
// directly (the serving engine interns through its actionlog.Interner
// instead).
func (d *Detector) Token(action string) int {
	i, err := d.vocab.Index(action)
	if err != nil {
		return actionlog.TokenUnknown
	}
	return i
}

// ClusterCount returns the number of behavior clusters.
func (d *Detector) ClusterCount() int { return len(d.clusters) }

// Clusters returns the per-cluster models (shared storage; callers must
// not mutate).
func (d *Detector) Clusters() []ClusterModel { return d.clusters }

// Featurizer returns the session featurizer shared by the OC-SVMs.
func (d *Detector) Featurizer() *ocsvm.Featurizer { return d.featurizer }

// RouteScores returns every cluster OC-SVM's decision score for the
// (possibly partial) encoded session.
func (d *Detector) RouteScores(encoded []int) (tensor.Vector, error) {
	x, err := d.featurizer.Session(encoded)
	if err != nil {
		return nil, fmt.Errorf("core: featurize session: %w", err)
	}
	scores := tensor.NewVector(len(d.clusters))
	for i := range d.clusters {
		s, err := d.clusters[i].Router.Score(x)
		if err != nil {
			return nil, fmt.Errorf("core: route score cluster %d: %w", i, err)
		}
		scores[i] = s
	}
	return scores, nil
}

// Route assigns the encoded session to the cluster with the maximal
// OC-SVM score, the paper's prediction-phase routing.
func (d *Detector) Route(encoded []int) (int, tensor.Vector, error) {
	scores, err := d.RouteScores(encoded)
	if err != nil {
		return 0, nil, err
	}
	return scores.ArgMax(), scores, nil
}

// RouteByVote assigns the session by the paper's online rule: the OC-SVM
// vote over the first RouteVoteActions actions ("check the cluster only
// during first 15 actions and then use the most frequently assigned
// cluster").
func (d *Detector) RouteByVote(encoded []int) (int, error) {
	if len(encoded) == 0 {
		return 0, fmt.Errorf("core: empty session")
	}
	window := encoded[:min(len(encoded), d.cfg.RouteVoteActions)]
	dist := d.router.Start()
	votes := make([]int32, len(d.clusters))
	prefix := make([]int32, 0, len(window))
	cluster := 0
	for _, a := range window {
		c, err := d.vote(dist, votes, prefix, a)
		if err != nil {
			return 0, err
		}
		cluster = c
		prefix = append(prefix, int32(a))
	}
	return cluster, nil
}

// vote is one step of the routing vote, shared by RouteByVote and
// SessionMonitor: it folds action into the route state dist of the
// vote-window prefix seen so far, gives the action's vote to the cluster
// whose OC-SVM scores the extended prefix highest, and returns the
// cluster leading the tally (the lowest index among ties).
func (d *Detector) vote(dist []int32, votes, prefix []int32, action int) (int, error) {
	prior := 0
	for _, a := range prefix {
		if int(a) == action {
			prior++
		}
	}
	best, err := d.router.Observe(dist, action, prior)
	if err != nil {
		return 0, fmt.Errorf("core: vote: %w", err)
	}
	votes[best]++
	leader, top := 0, int32(-1)
	for i, v := range votes {
		if v > top {
			leader, top = i, v
		}
	}
	return leader, nil
}

// SessionReport is the scored outcome for one session.
type SessionReport struct {
	// SessionID echoes the session.
	SessionID string
	// Cluster is the routed behavior cluster.
	Cluster int
	// RouterScore is the routed cluster's OC-SVM decision value.
	RouterScore float64
	// Score holds the sequence-model normality measures.
	Score scorer.Score
}

// ScoreSession routes and scores one session end to end (prediction
// phase of the paper's Figure 2), using the first-K vote for routing.
func (d *Detector) ScoreSession(s *actionlog.Session) (SessionReport, error) {
	encoded, err := d.vocab.Encode(s)
	if err != nil {
		return SessionReport{}, fmt.Errorf("core: encode session %s: %w", s.ID, err)
	}
	if len(encoded) < d.cfg.MinSessionLength {
		return SessionReport{}, fmt.Errorf("core: session %s shorter than %d actions", s.ID, d.cfg.MinSessionLength)
	}
	cluster, err := d.RouteByVote(encoded)
	if err != nil {
		return SessionReport{}, err
	}
	scores, err := d.RouteScores(encoded)
	if err != nil {
		return SessionReport{}, err
	}
	sc, err := scorer.ScoreStream(d.clusters[cluster].Model, encoded)
	if err != nil {
		return SessionReport{}, fmt.Errorf("core: score session %s: %w", s.ID, err)
	}
	return SessionReport{
		SessionID:   s.ID,
		Cluster:     cluster,
		RouterScore: scores[cluster],
		Score:       sc,
	}, nil
}

// ScoreWeighted implements the paper's first future-work extension: a
// weighted combination of all cluster models' likelihoods, weighted by the
// softmax of the OC-SVM routing scores, absorbing routing imprecision.
func (d *Detector) ScoreWeighted(s *actionlog.Session) (float64, error) {
	encoded, err := d.vocab.Encode(s)
	if err != nil {
		return 0, fmt.Errorf("core: encode session %s: %w", s.ID, err)
	}
	if len(encoded) < d.cfg.MinSessionLength {
		return 0, fmt.Errorf("core: session %s shorter than %d actions", s.ID, d.cfg.MinSessionLength)
	}
	routeScores, err := d.RouteScores(encoded)
	if err != nil {
		return 0, err
	}
	weights := tensor.NewVector(len(routeScores))
	tensor.Softmax(weights, routeScores)
	var combined float64
	for i := range d.clusters {
		sc, err := scorer.ScoreStream(d.clusters[i].Model, encoded)
		if err != nil {
			return 0, err
		}
		combined += weights[i] * sc.AvgLikelihood
	}
	return combined, nil
}

// RankSuspicious scores the sessions and returns them ordered from most
// to least suspicious by average likelihood (the paper's §IV-D "most
// suspicious sessions" review). Sessions too short to score are skipped.
func (d *Detector) RankSuspicious(sessions []*actionlog.Session) ([]SessionReport, error) {
	reports := make([]SessionReport, 0, len(sessions))
	for _, s := range sessions {
		r, err := d.ScoreSession(s)
		if err != nil {
			if s.Len() < d.cfg.MinSessionLength {
				continue
			}
			return nil, err
		}
		reports = append(reports, r)
	}
	// Ascending likelihood: the most suspicious first.
	sort.Slice(reports, func(i, j int) bool {
		return reports[i].Score.AvgLikelihood < reports[j].Score.AvgLikelihood
	})
	return reports, nil
}
