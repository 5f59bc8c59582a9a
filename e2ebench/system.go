package main

// Set-up and tear-down of the system under test, composed from the same
// public constructors cmd/chronos-control and cmd/chronos-agent use: a
// durable relstore (per-commit fsync, default compaction) under
// core.Service and rest.Server on a loopback listener, plus, for the
// fanout workload, a repl follower serving delegated claims.

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// system is one running Chronos Control deployment with the entities a
// workload's evaluations need.
type system struct {
	wl  *workloadSpec
	dir string

	logFile *os.File
	db      *relstore.DB
	svc     *core.Service
	reg     *metrics.Registry
	stopWD  context.CancelFunc
	servers []*http.Server
	url     string

	follower *repl.Follower
	freg     *metrics.Registry
	furl     string

	bot          *client.Client // schedules evaluations, like a build bot
	deploymentID string
	experimentID string
	firstEval    []*core.Job
}

// startSystem builds the deployment in dir and returns once it is ready
// for load: store open, servers listening, system, experiment and first
// evaluation created and, with a follower, the follower caught up. A
// non-nil tap records rest spans for the agent routes.
func startSystem(dir string, wl *workloadSpec, seed int64, tap *recorder) (_ *system, err error) {
	s := &system{wl: wl, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if s.logFile, err = os.Create(filepath.Join(dir, "requests.log")); err != nil {
		return nil, err
	}
	logger := log.New(s.logFile, "", log.LstdFlags|log.Lmicroseconds)

	s.reg = metrics.NewRegistry()
	if s.db, err = relstore.Open(filepath.Join(dir, "leader"), &relstore.Options{Sync: relstore.SyncEveryCommit, Metrics: s.reg}); err != nil {
		return nil, err
	}
	if s.svc, err = core.NewService(s.db, nil); err != nil {
		return nil, err
	}
	s.svc.SetMetrics(s.reg)
	s.svc.HeartbeatTimeout = 60 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWD = cancel
	s.svc.StartWatchdog(ctx, 10*time.Second)

	srv := rest.NewServer(s.svc)
	srv.Registry = s.reg
	srv.Logger = logger
	if s.url, err = s.serve(srv.Handler(), tap, "leader"); err != nil {
		return nil, err
	}

	if wl.follower {
		s.freg = metrics.NewRegistry()
		s.follower, err = repl.Start(repl.Config{
			Dir: filepath.Join(dir, "follower"), Leader: s.url, Metrics: s.freg, Logger: logger,
		})
		if err != nil {
			return nil, err
		}
		fsvc := core.NewFollowerService(s.follower.DB(), nil)
		fsrv := rest.NewServer(fsvc)
		fsrv.Repl = s.follower
		fsrv.Registry = s.freg
		fsrv.Logger = logger
		claimer := repl.NewClaimer("bench-follower", fsvc, repl.NewClient(s.url, "", "", nil))
		claimer.EnableMetrics(s.freg)
		fsrv.Claims = claimer
		if s.furl, err = s.serve(fsrv.Handler(), tap, "follower"); err != nil {
			return nil, err
		}
	}

	if err := s.createEntities(seed); err != nil {
		return nil, err
	}
	if s.follower != nil {
		wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer wcancel()
		if err := s.follower.WaitCaughtUp(wctx); err != nil {
			return nil, fmt.Errorf("follower catch-up: %w", err)
		}
	}
	return s, nil
}

// serve starts an HTTP server for h on a loopback port and returns its
// base URL. Only the API and /metrics are mounted, as in
// cmd/chronos-control minus the web UI, which no agent touches.
func (s *system) serve(h http.Handler, tap *recorder, name string) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/api/", h)
	mux.Handle("GET /metrics", h)
	var root http.Handler = mux
	if tap != nil && tap.tracing {
		root = &handlerTap{next: mux, rec: tap, server: name}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: root, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, hs)
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

// createEntities registers the workload's SUT family (with a seed
// parameter, so job seeds travel as job parameters) and creates the
// user, project, deployment, experiment and first evaluation through
// the SDK. The experiment sweeps one batch of job seeds drawn from the
// benchmark seed, so each evaluation has one job per seed.
func (s *system) createEntities(seed int64) error {
	s.bot = client.NewClient(s.url, client.WithVersion("v2"))
	defs, diagrams := s.wl.family.definition()
	defs = append(defs, params.Definition{
		Name: "seed", Label: "Workload Seed", Type: params.TypeValue,
		ValueKind: params.KindInt, Default: params.Int(42),
		Description: "seed of the generated data and operation stream",
	})
	sys, err := s.bot.RegisterSystem(s.wl.family.name, "benchmark SUT", defs, diagrams)
	if err != nil {
		return err
	}
	user, err := s.bot.CreateUser("bench", core.RoleAdmin)
	if err != nil {
		return err
	}
	proj, err := s.bot.CreateProject("bench", "end-to-end benchmark", user.ID, nil)
	if err != nil {
		return err
	}
	dep, err := s.bot.CreateDeployment(sys.ID, "bench", "loopback", "dev")
	if err != nil {
		return err
	}
	s.deploymentID = dep.ID
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	seeds := make([]params.Value, s.wl.batch)
	for i := range seeds {
		seeds[i] = params.Int(1 + rng.Int64N(1<<31))
	}
	exp, err := s.bot.CreateExperiment(proj.ID, sys.ID, s.wl.name, "", s.wl.settings(seeds), 1)
	if err != nil {
		return err
	}
	s.experimentID = exp.ID
	s.firstEval, err = s.schedule()
	return err
}

// schedule runs the experiment once more, as a build bot would, and
// returns the new evaluation's jobs.
func (s *system) schedule() ([]*core.Job, error) {
	_, jobs, err := s.bot.CreateEvaluation(s.experimentID)
	return jobs, err
}

// close stops everything startSystem started and waits for it.
func (s *system) close() {
	if s.stopWD != nil {
		s.stopWD()
	}
	for _, hs := range s.servers {
		_ = hs.Close() // tear-down: open connections are cut on purpose
	}
	if s.follower != nil {
		_ = s.follower.Close() // replica is discarded with the run directory
	}
	if s.db != nil {
		if err := s.db.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: close store: %v\n", err)
		}
	}
	if s.logFile != nil {
		_ = s.logFile.Close() // the log is diagnostic only
	}
}

// metricsText renders a registry's Prometheus exposition.
func metricsText(reg *metrics.Registry) (scrape, error) {
	if reg == nil {
		return scrape{}, nil
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parsePrometheus(b.String())
}
