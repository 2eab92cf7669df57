// Command isrl-serve runs the interactive regret query as a JSON/HTTP
// service — the deployment shape of the paper's motivating scenario (a
// database system helping users find their favorite tuple).
//
// Usage:
//
//	isrl-serve -data car -algo ea -episodes 500 -addr :8080
//	curl -X POST localhost:8080/sessions
//	curl -X POST localhost:8080/sessions/s1/answer \
//	     -H "Content-Type: application/json" -d '{"prefer_first":true}'
//	curl localhost:8080/sessions/s1
//	curl localhost:8080/metrics        # counters, gauges, latency quantiles
//	curl localhost:8080/healthz        # liveness probe
//
// Each answered question narrows the session's utility range; when the
// ε-guarantee is met the response carries the recommended tuple.
//
// Observability: requests are logged through log/slog (text or JSON via
// -log-json; per-request lines at -log-level=debug), metrics accumulate in
// the process-wide obs registry exported at /metrics, idle sessions are
// swept after -session-ttl, and -debug-addr exposes net/http/pprof on a
// separate listener that is never reachable from the public address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux (debug listener only)
	"os"
	"os/signal"
	"syscall"
	"time"

	"isrl/internal/aa"
	"isrl/internal/baselines"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/fault"
	"isrl/internal/geom"
	"isrl/internal/obs"
	"isrl/internal/repl"
	"isrl/internal/server"
	"isrl/internal/trace"
	"isrl/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		debugAddr   = flag.String("debug-addr", "", "pprof/debug listen address (disabled when empty)")
		data        = flag.String("data", "car", "anti, indep, corr, car, player (ignored with -csv)")
		csvPath     = flag.String("csv", "", "serve a CSV dataset")
		n           = flag.Int("n", 10000, "synthetic dataset size")
		d           = flag.Int("d", 4, "synthetic dimensionality")
		algo        = flag.String("algo", "ea", "ea, aa, uh-random, uh-simplex")
		eps         = flag.Float64("eps", 0.1, "regret-ratio threshold")
		episodes    = flag.Int("episodes", 500, "training episodes for ea/aa")
		seed        = flag.Int64("seed", 1, "random seed")
		sessionTTL  = flag.Duration("session-ttl", server.DefaultSessionTTL, "evict sessions idle longer than this (0 disables)")
		deadline    = flag.Duration("answer-deadline", server.DefaultAnswerDeadline, "max wait for the next question before 503 (0 waits forever)")
		stateDir    = flag.String("state-dir", "", "write-ahead journal directory; restarts recover in-flight sessions (empty disables)")
		scrubEvery  = flag.Duration("scrub-every", 5*time.Minute, "background scrub interval for sealed journal segments; also paces the anti-entropy digest exchange on a primary (0 disables)")
		scrubRate   = flag.Int64("scrub-rate", 8<<20, "scrub read budget in bytes/sec (0 removes the limit)")
		maxSessions = flag.Int("max-sessions", 0, "admission cap on live sessions; at capacity POST /sessions returns 429 (0 disables)")
		answerQueue = flag.Int("answer-queue", server.DefaultAnswerQueue, "bounded answer-work queue size; excess requests shed with 503 (0 disables)")
		shutGrace   = flag.Duration("shutdown-grace", 10*time.Second, "on SIGTERM, let in-flight sessions finish for up to this long before journaling expiry tombstones")
		replTarget  = flag.String("replicate-to", "", "run as primary: stream the journal to the follower at host:port (requires -state-dir)")
		followAddr  = flag.String("follow", "", "run as follower: listen for a primary's journal stream on this address (requires -state-dir)")
		promAfter   = flag.Duration("promote-after", 10*time.Second, "follower only: promote to primary after this much stream silence (0 disables auto-promotion)")
		replToken   = flag.String("repl-token", "", "shared secret for the replication link; a follower drops handshakes without it (empty disables)")
		faultSpec   = flag.String("fault", "", "fault-injection plan, e.g. 'lp.solve:err=0.01;geom.vertices:panic=0.001' (testing only; geom.vertices fires only on scratch vertex enumerations: a session's first read and clip fallbacks)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault-injection plan")
		logLevel    = flag.String("log-level", "info", "debug, info, warn, error")
		logJSON     = flag.Bool("log-json", false, "emit JSON logs instead of text")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of sessions traced to /debug/traces (0 disables tracing)")
		traceSlow   = flag.Duration("trace-slow", 0, "log traces slower than this and pin them in the slow reservoir (0 disables)")
		traceBuffer = flag.Int("trace-buffer", trace.DefaultBufferSize, "completed traces kept in the /debug/traces ring")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logJSON)
	if err != nil {
		fatalf("%v", err)
	}
	slog.SetDefault(logger)

	if *replTarget != "" && *followAddr != "" {
		fatalf("-replicate-to and -follow are mutually exclusive: a node is a primary or a follower, not both")
	}
	if (*replTarget != "" || *followAddr != "") && *stateDir == "" {
		fatalf("replication ships the write-ahead journal; -replicate-to/-follow require -state-dir")
	}

	if *faultSpec != "" {
		plan, err := fault.ParsePlan(*faultSpec, *faultSeed)
		if err != nil {
			fatalf("%v", err)
		}
		fault.Install(plan)
		logger.Warn("fault injection active", "plan", plan.String(), "seed", *faultSeed)
	}

	ds, err := loadData(*csvPath, *data, *n, *d, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	logger.Info("dataset loaded", "skyline_tuples", ds.Len(), "dim", ds.Dim())

	factory, err := buildFactory(*algo, ds, *eps, *episodes, *seed, logger)
	if err != nil {
		fatalf("%v", err)
	}
	srvOpts := []server.Option{
		server.WithLogger(logger),
		server.WithSessionTTL(*sessionTTL),
		server.WithAnswerDeadline(*deadline),
		server.WithSessionSeed(*seed),
		server.WithMaxSessions(*maxSessions),
		server.WithAnswerQueue(*answerQueue),
	}
	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Options{
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
			BufferSize:    *traceBuffer,
			Logger:        logger,
		})
		srvOpts = append(srvOpts, server.WithTracer(tracer))
		logger.Info("session tracing enabled", "sample", *traceSample, "buffer", *traceBuffer, "slow", *traceSlow)
	}
	var journal *wal.Log
	var recoveredStates []wal.SessionState
	if *stateDir != "" {
		journal, recoveredStates, err = wal.Open(*stateDir, wal.Options{Logger: logger})
		if err != nil {
			fatalf("open journal: %v", err)
		}
		defer journal.Close()
		srvOpts = append(srvOpts, server.WithJournal(journal))
	}
	var node *repl.Node
	switch {
	case *replTarget != "":
		node = repl.NewPrimary(journal, *replTarget, repl.Options{
			Seed: *seed, Logger: logger, Tracer: tracer, Token: *replToken,
			DigestEvery: *scrubEvery,
		})
		srvOpts = append(srvOpts, server.WithReplication(node))
		logger.Info("replication primary", "target", *replTarget, "epoch", journal.Epoch())
	case *followAddr != "":
		node, err = repl.NewFollower(journal, *followAddr, repl.Options{
			Seed: *seed, Logger: logger, Tracer: tracer, PromoteAfter: *promAfter, Token: *replToken,
		})
		if err != nil {
			fatalf("%v", err)
		}
		srvOpts = append(srvOpts, server.WithReplication(node))
		logger.Info("replication follower", "listen", node.Addr(),
			"promote_after", *promAfter, "epoch", journal.Epoch())
	}
	srv := server.New(ds, *eps, factory, srvOpts...)
	switch {
	case node != nil && node.Role() == "follower":
		// A follower keeps its journal warm but runs no live sessions (every
		// session route sheds 503 until promotion); promotion rebuilds them
		// from a consistent snapshot through the same recovery path a
		// restart uses.
		node.OnPromote(func(epoch uint64, states []wal.SessionState) {
			n := srv.Recover(states)
			logger.Warn("promoted to primary; serving", "epoch", epoch,
				"journaled_sessions", len(states), "recovered", n)
		})
	case journal != nil:
		n := srv.Recover(recoveredStates)
		logger.Info("journal recovery complete", "dir", *stateDir,
			"journaled_sessions", len(recoveredStates), "recovered", n)
	}
	if node != nil {
		node.Start()
		defer node.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if journal != nil && *scrubEvery > 0 {
		go journal.ScrubLoop(ctx, *scrubEvery, *scrubRate)
		logger.Info("journal scrubber running", "every", *scrubEvery, "rate_bytes_per_s", *scrubRate)
	}

	if *debugAddr != "" {
		// net/http/pprof registered itself on the DefaultServeMux; serve it
		// (plus a text metrics dump) on the private debug listener only.
		http.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = obs.Default().WriteText(w)
		})
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux}
		go func() {
			logger.Info("debug server listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", "err", err)
			}
		}()
		defer dbg.Close()
	}

	if *sessionTTL > 0 {
		go sweeper(ctx, srv, *sessionTTL)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving interactive search", "addr", *addr, "algo", *algo, "eps", *eps, "session_ttl", *sessionTTL)

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
		logger.Info("shutdown signal received, draining")
		// Drain first: new creates shed with 503 + Retry-After while in-flight
		// rounds keep answering for up to the grace. Sessions still alive when
		// it expires get journaled expiry tombstones, so a later restart
		// recovers them instead of silently losing their answer prefix.
		expired := srv.Drain(*shutGrace)
		if expired > 0 {
			logger.Warn("drain grace expired", "sessions_tombstoned", expired)
		}
		sctx, cancel := context.WithTimeout(context.Background(), *shutGrace+10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			logger.Error("shutdown incomplete", "err", err)
			os.Exit(1)
		}
		logger.Info("shutdown complete")
	}
}

// buildLogger constructs the process logger from the CLI flags.
func buildLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// sweeper periodically evicts idle sessions so a server with no traffic
// still reclaims abandoned algorithm goroutines.
func sweeper(ctx context.Context, srv *server.Server, ttl time.Duration) {
	interval := ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			srv.Sweep()
		}
	}
}

func loadData(csvPath, kind string, n, d int, seed int64) (*dataset.Dataset, error) {
	if csvPath != "" {
		ds, err := dataset.LoadFile(csvPath)
		if err != nil {
			return nil, err
		}
		return ds.Skyline(), nil
	}
	ds, err := dataset.Generate(kind, rand.New(rand.NewSource(seed)), n, d)
	if err != nil {
		return nil, err
	}
	return ds.Skyline(), nil
}

// publishTraining pushes a finished training run into the default obs
// registry so /metrics reports DQN state alongside the serving metrics.
func publishTraining(st core.TrainStats) {
	reg := obs.Default()
	reg.Gauge("train.episodes").Set(int64(st.Episodes))
	reg.FloatGauge("train.avg_rounds").Set(st.AvgRounds)
	st.RL.Publish(reg)
}

// buildFactory trains RL agents once up front and hands each session its
// own algorithm instance. An RL session's Load decodes nothing: every
// session reads the one trained Q-network, decoded once and never written,
// and owns only its forward scratch, so a live session costs tens of KiB;
// baselines are cheap to rebuild. The
// per-session seed comes from the server, which journals it: rebuilding an
// instance with the same seed after a restart reproduces the identical
// question sequence, the property session replay recovery rests on.
func buildFactory(algo string, ds *dataset.Dataset, eps float64, episodes int, seed int64, logger *slog.Logger) (server.AlgorithmFactory, error) {
	rng := rand.New(rand.NewSource(seed))
	trainVectors := func() [][]float64 {
		users := make([][]float64, episodes)
		for i := range users {
			users[i] = geom.SampleSimplex(rng, ds.Dim())
		}
		return users
	}
	switch algo {
	case "ea":
		return trainedFactory(ea.New(ds, eps, ea.Config{}, rng), trainVectors, episodes, logger,
			func(blob []byte, rng *rand.Rand) (core.Algorithm, error) {
				return ea.Load(ds, eps, ea.Config{}, blob, rng)
			})
	case "aa":
		return trainedFactory(aa.New(ds, eps, aa.Config{}, rng), trainVectors, episodes, logger,
			func(blob []byte, rng *rand.Rand) (core.Algorithm, error) {
				return aa.Load(ds, eps, aa.Config{}, blob, rng)
			})
	case "uh-random":
		return func(sessionSeed int64) core.Algorithm {
			return baselines.NewUHRandom(baselines.UHConfig{}, rand.New(rand.NewSource(sessionSeed)))
		}, nil
	case "uh-simplex":
		return func(sessionSeed int64) core.Algorithm {
			return baselines.NewUHSimplex(baselines.UHConfig{}, rand.New(rand.NewSource(sessionSeed)))
		}, nil
	}
	return nil, fmt.Errorf("unknown -algo %q", algo)
}

// trainedFactory trains alg (EA or AA) once on users() and returns a factory
// that restores the trained agent for each session through load.
func trainedFactory(alg core.Trainable, users func() [][]float64, episodes int, logger *slog.Logger,
	load func(blob []byte, rng *rand.Rand) (core.Algorithm, error)) (server.AlgorithmFactory, error) {
	logger.Info("training "+alg.Name(), "episodes", episodes)
	if episodes > 0 {
		st, err := alg.Train(users())
		if err != nil {
			return nil, err
		}
		logger.Info(alg.Name()+" trained", "avg_rounds", st.AvgRounds,
			"loss_ema", st.RL.LossEMA, "updates", st.RL.Updates, "target_syncs", st.RL.TargetSyncs)
		publishTraining(st)
	}
	blob, err := alg.Agent().MarshalBinary()
	if err != nil {
		return nil, err
	}
	return func(sessionSeed int64) core.Algorithm {
		inst, err := load(blob, rand.New(rand.NewSource(sessionSeed)))
		if err != nil {
			panic(fmt.Sprintf("isrl-serve: reload trained agent: %v", err))
		}
		return inst
	}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "isrl-serve: "+format+"\n", args...)
	os.Exit(1)
}
