package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"isrl/client"
	"isrl/internal/aa"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/geom"
	"isrl/internal/repl"
	"isrl/internal/server"
	"isrl/internal/trace"
	"isrl/internal/wal"
)

// stack is one serving deployment built the way isrl-serve builds it: a
// trained algorithm factory, a journaled server, a primary streaming its
// journal to an in-process follower, and the server behind a loopback
// listener reached through the public client SDK.
type stack struct {
	ds      *dataset.Dataset
	factory server.AlgorithmFactory // untraced: used by the replay check
	base    int64                   // session N runs with algorithm seed base+N

	dir                string
	pj, fj             *wal.Log
	primary, follower  *repl.Node
	srv                *server.Server
	httpSrv            *http.Server
	served             chan struct{} // closed when Serve has returned
	url                string
	client             *client.Client
	spans              *spanStore // traced stacks only
	closedHTTP, closed bool
}

// newLogger keeps library warnings out of the benchmark's stdout. The
// server logs at Warn for conditions the checks already count, and teardown
// journals expiry tombstones into closed logs on purpose, so only errors
// are shown.
func newLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

// dataSeed fixes every workload's dataset and training users. With the
// data drawn from the workload seed, rounds_per_session spread 12% over
// ten seeds and every other metric followed the skyline size; fixing the
// data leaves the seed to the simulated users, the session seeds and the
// arrivals, which is the variation a serving benchmark is about.
const dataSeed = 1

// trainFactory generates the workload's dataset and trains its agent the
// way isrl-serve does, returning the skyline and a per-session factory.
func trainFactory(w workload) (*dataset.Dataset, server.AlgorithmFactory, error) {
	raw, err := dataset.Generate(w.Data, rand.New(rand.NewSource(dataSeed)), w.N, w.D)
	if err != nil {
		return nil, nil, err
	}
	ds := raw.Skyline()
	rng := rand.New(rand.NewSource(dataSeed))
	users := make([][]float64, w.Episodes)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, ds.Dim())
	}
	var blob []byte
	switch w.Algo {
	case "ea":
		e := ea.New(ds, eps, ea.Config{}, rng)
		if len(users) > 0 {
			if _, err := e.Train(users); err != nil {
				return nil, nil, fmt.Errorf("train EA: %w", err)
			}
		}
		blob, err = e.Agent().MarshalBinary()
	case "aa":
		a := aa.New(ds, eps, aa.Config{}, rng)
		if len(users) > 0 {
			if _, err := a.Train(users); err != nil {
				return nil, nil, fmt.Errorf("train AA: %w", err)
			}
		}
		blob, err = a.Agent().MarshalBinary()
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", w.Algo)
	}
	if err != nil {
		return nil, nil, err
	}
	load := func(sessionSeed int64) (core.Algorithm, error) {
		r := rand.New(rand.NewSource(sessionSeed))
		if w.Algo == "ea" {
			return ea.Load(ds, eps, ea.Config{}, blob, r)
		}
		return aa.Load(ds, eps, aa.Config{}, blob, r)
	}
	// Reload once now so a bad blob fails set-up instead of a session.
	if _, err := load(dataSeed); err != nil {
		return nil, nil, err
	}
	return ds, func(sessionSeed int64) core.Algorithm {
		alg, err := load(sessionSeed)
		if err != nil {
			panic(fmt.Sprintf("e2ebench: reload trained agent: %v", err))
		}
		return alg
	}, nil
}

// buildStack runs the whole set-up: dataset, skyline, training, both
// journals, the replication link and the HTTP listener. It returns once the
// first session create has succeeded and the follower has acknowledged it,
// together with how long that took. The probe session is deleted again.
func buildStack(ctx context.Context, w workload, cfg runConfig, hc *http.Client, traced bool) (*stack, time.Duration, error) {
	start := time.Now()
	ds, factory, err := trainFactory(w)
	if err != nil {
		return nil, 0, err
	}
	st := &stack{ds: ds, factory: factory, base: cfg.Seed}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, 0, err
	}
	if st.dir, err = os.MkdirTemp(cfg.StateDir, w.Name+"-"); err != nil {
		return nil, 0, err
	}
	logger := newLogger()
	if st.pj, _, err = wal.Open(filepath.Join(st.dir, "primary"), wal.Options{Logger: logger}); err != nil {
		return nil, 0, err
	}
	if st.fj, _, err = wal.Open(filepath.Join(st.dir, "follower"), wal.Options{Logger: logger}); err != nil {
		return nil, 0, err
	}
	if st.follower, err = repl.NewFollower(st.fj, "127.0.0.1:0", repl.Options{Seed: cfg.Seed + 1, Logger: logger}); err != nil {
		return nil, 0, err
	}
	st.primary = repl.NewPrimary(st.pj, st.follower.Addr(), repl.Options{Seed: cfg.Seed, Logger: logger})

	opts := []server.Option{
		server.WithLogger(logger),
		server.WithSessionSeed(st.base),
		server.WithJournal(st.pj),
		server.WithReplication(st.primary),
	}
	serverFactory := factory
	if traced {
		st.spans = newSpanStore()
		// Every session is traced and every span kept, so the attribution
		// covers each answer; the ring holds every session of a run.
		tracer := trace.New(trace.Options{SampleRate: 1, BufferSize: 1 << 15, MaxSpans: 1 << 16, Logger: logger})
		opts = append(opts, server.WithTracer(tracer))
		serverFactory = st.spans.wrapFactory(factory, st.base)
	}
	st.srv = server.New(ds, eps, serverFactory, opts...)
	st.follower.Start()
	st.primary.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	var h http.Handler = st.srv
	if traced {
		h = st.spans.middleware(h)
	}
	st.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		if err := st.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("e2ebench: serve", "err", err)
		}
	}()
	st.url = "http://" + ln.Addr().String()
	st.client = client.New(st.url, client.WithHTTPClient(hc))

	probe, err := st.client.Create(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("first create: %w", err)
	}
	if err := st.waitCaughtUp(ctx); err != nil {
		return nil, 0, err
	}
	setup := time.Since(start)
	if err := probe.Abort(ctx); err != nil {
		return nil, 0, fmt.Errorf("delete probe session: %w", err)
	}
	ok = true
	return st, setup, nil
}

// waitCaughtUp blocks until the follower has acknowledged every record the
// primary journaled, as both ends report it.
func (st *stack) waitCaughtUp(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		p, _ := st.primary.Lag()
		f, _ := st.follower.Lag()
		if p == 0 && f == 0 && st.primary.Stats().BatchesSent > 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("follower did not catch up (primary lag %d, follower lag %d): %w", p, f, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stopServing closes the HTTP listener, the replication link and both
// journals, leaving the journal directories for the audit. Idempotent.
func (st *stack) stopServing() {
	if st.closedHTTP {
		return
	}
	st.closedHTTP = true
	if st.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = st.httpSrv.Shutdown(ctx) // an unfinished shutdown is closed below
		cancel()
		_ = st.httpSrv.Close()
		<-st.served
	}
	for _, n := range []*repl.Node{st.primary, st.follower} {
		if n != nil {
			_ = n.Close() // Close always returns nil
		}
	}
	for _, j := range []*wal.Log{st.pj, st.fj} {
		if j != nil {
			_ = j.Close() // the audit reopens the files and reports damage
		}
	}
}

// close stops serving, ends every live session so its goroutine exits, and
// removes the journal directories. The sessions' expiry tombstones go to
// the already-closed journals and are dropped: any audit has already read
// the journals, and only the memory matters now. Idempotent.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	st.stopServing()
	if st.srv != nil {
		st.srv.Drain(0)
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir) // journals the benchmark created under its state directory
	}
}
