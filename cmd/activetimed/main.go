// Command activetimed is the long-running active-time solver service.
// It exposes:
//
//	POST /solve             solve an instance (JSON in, JSON out)
//	POST /jobs              submit an async solve job (SLO-class scheduled)
//	GET  /jobs/{id}         poll a job (result inline once done)
//	DELETE /jobs/{id}       cancel a job
//	GET  /jobs/{id}/events  job progress as server-sent events
//	GET  /healthz           liveness probe (build identity included)
//	GET  /metrics           Prometheus text exposition (cumulative)
//	GET  /debug/pprof/...   net/http/pprof profiling endpoints
//	GET  /debug/events      recent wide events (filter: status, class, path, limit)
//	GET  /debug/slo         rolling 1m/10m/1h SLO burn-rate summary
//	GET  /debug/traces/{id} tail-sampled Chrome-trace JSON for one request
//
// Logs are structured (log/slog) with a per-request ID on every
// /solve line. See README.md "Running the service" for curl examples.
//
// Usage:
//
//	activetimed [-addr 127.0.0.1:8080] [-workers N] [-log json|text] [-port-file PATH]
//	            [-max-inflight N] [-admission-wait DUR] [-solve-timeout DUR] [-cache-entries N]
//	            [-max-solve-mem BYTES]
//	            [-jobs-running N] [-jobs-queued N] [-jobs-policy fcfs|priority|sjf]
//	            [-jobs-budget class=N,...]
//	            [-events-ring N] [-events-file PATH] [-tail-slow DUR] [-tail-traces N]
//	            [-slo-p99 MS] [-slo-max-error-rate F] [-drain-wait DUR]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	workers := flag.Int("workers", 1, "default per-solve worker-pool size for independent forests")
	logFormat := flag.String("log", "json", "log format: json | text")
	portFile := flag.String("port-file", "", "write the bound host:port to this file once listening (for smoke tests)")
	maxInFlight := flag.Int("max-inflight", 16, "maximum concurrently executing solves (0 disables admission control)")
	admissionWait := flag.Duration("admission-wait", 100*time.Millisecond, "how long a request waits for an in-flight slot before 429")
	solveTimeout := flag.Duration("solve-timeout", 0, "per-solve wall-time cap (0 = unlimited); requests can only tighten it")
	cacheEntries := flag.Int("cache-entries", 256, "solve-result LRU capacity (0 disables caching and coalescing)")
	cacheWarmBytes := flag.Int64("cache-warm-bytes", 64<<20, "budget for warm solver state retained on cache entries for near-miss warm starts (0 disables warm starts)")
	maxSolveMem := flag.Int64("max-solve-mem", 1<<30, "reject (422) any solve whose estimated allocation (schedule, per-slot structures, LP tableau) for the routed algorithm exceeds this many bytes (0 disables)")
	jobsRunning := flag.Int("jobs-running", 2, "async job execution slots, separate from -max-inflight (0 disables the job API)")
	jobsQueued := flag.Int("jobs-queued", 256, "maximum queued async jobs across all classes")
	jobsPolicy := flag.String("jobs-policy", "sjf", "async job scheduling policy: fcfs | priority | sjf")
	jobsBudget := flag.String("jobs-budget", "", "per-class admission budgets, e.g. interactive=64,batch=128 (empty = unbounded)")
	eventsRing := flag.Int("events-ring", 1024, "wide-event in-memory ring size behind /debug/events (0 disables the telemetry pipeline)")
	eventsFile := flag.String("events-file", "", "append every wide event as one JSON line to this file")
	tailSlow := flag.Duration("tail-slow", 250*time.Millisecond, "tail-sampling threshold: successful requests at or above it retain their trace (0 = errors/sheds only)")
	tailTraces := flag.Int("tail-traces", 64, "maximum retained tail-sampled traces")
	sloP99 := flag.Float64("slo-p99", 250, "latency objective in ms for the in-server SLO burn-rate tracker")
	sloMaxErr := flag.Float64("slo-max-error-rate", 0.01, "error budget (fraction) for the in-server SLO burn-rate tracker")
	drainWait := flag.Duration("drain-wait", 0, "on SIGTERM, report draining on /healthz for this long before closing the listener (lets a cluster router eject this replica first)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "activetimed: unknown -log format %q\n", *logFormat)
		os.Exit(2)
	}
	log := slog.New(handler)

	if _, err := jobs.PolicyByName(*jobsPolicy); err != nil {
		fmt.Fprintf(os.Stderr, "activetimed: %v\n", err)
		os.Exit(2)
	}
	budgets, err := jobs.ParseBudgets(*jobsBudget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "activetimed: %v\n", err)
		os.Exit(2)
	}
	var eventSink *os.File
	if *eventsFile != "" {
		f, err := os.OpenFile(*eventsFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "activetimed: %v\n", err)
			os.Exit(2)
		}
		eventSink = f
		defer f.Close()
	}

	cfg := server.Config{
		DefaultWorkers:   *workers,
		MaxInFlight:      *maxInFlight,
		AdmissionWait:    *admissionWait,
		SolveTimeout:     *solveTimeout,
		CacheEntries:     *cacheEntries,
		CacheWarmBytes:   *cacheWarmBytes,
		MaxSolveMemBytes: *maxSolveMem,
		JobsMaxRunning:   *jobsRunning,
		JobsMaxQueued:    *jobsQueued,
		JobsPolicy:       *jobsPolicy,
		JobsBudgets:      budgets,
		EventRing:        *eventsRing,
		TailSlow:         *tailSlow,
		TraceRetain:      *tailTraces,
		SLOTarget:        obs.SLOConfig{LatencyObjectiveMS: *sloP99, ErrorBudget: *sloMaxErr},
	}
	if eventSink != nil {
		cfg.EventSink = eventSink
	}
	srv := server.New(log, cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			log.Error("write port file", "path", *portFile, "err", err)
			os.Exit(1)
		}
	}
	log.Info("listening", "addr", bound, "workers", *workers,
		"max_inflight", *maxInFlight, "solve_timeout", solveTimeout.String(),
		"cache_entries", *cacheEntries,
		"jobs_running", *jobsRunning, "jobs_policy", *jobsPolicy)

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Info("shutting down", "reason", "signal")
		if *drainWait > 0 {
			// Flip /healthz to "draining" (503) and keep serving while
			// the router's health prober notices and ejects us; only
			// then close the listener.
			srv.StartDraining()
			log.Info("draining", "wait", drainWait.String())
			time.Sleep(*drainWait)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Error("shutdown", "err", err)
			os.Exit(1)
		}
		// Drain the job queue after the listener: queued jobs shed,
		// running solves canceled, every job reaches a terminal state.
		if err := srv.Close(shutCtx); err != nil {
			log.Error("job queue close", "err", err)
			os.Exit(1)
		}
		log.Info("bye", "solves", srv.Registry().Solves())
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve", "err", err)
			os.Exit(1)
		}
	}
}
