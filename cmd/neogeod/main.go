// Command neogeod serves the neogeography system over HTTP — the
// deployment shape of the paper's vision, where contributions and
// questions arrive as network traffic from many users instead of a
// terminal stream. Contributions POSTed to /v1/messages are enqueued and
// integrated by a background drain loop running the concurrent pipeline;
// questions POSTed to /v1/ask are answered synchronously from the
// accumulated knowledge. See docs/API.md for the endpoint contract.
//
// With -wal and -data-dir the daemon is crash-safe: the queue WAL makes
// every accepted contribution durable, periodic checkpoints persist the
// integrated store, and a restart restores the newest valid checkpoint
// before replaying whatever the image does not cover. A graceful stop
// writes one final checkpoint before the WAL closes; after a SIGKILL the
// next boot re-integrates from the log instead.
//
// Observability: GET /metrics on the public listener serves the whole
// pipeline's Prometheus families; -debug-addr starts a second, private
// listener that adds net/http/pprof profiling and the /debug/traces
// flight-recorder view next to /metrics, so profiles and raw timelines
// never ride the public surface. -trace-recorder keeps the last N
// interesting request timelines queryable at GET /v1/traces/{id}
// (slow or errored traces always kept, plus 1-in--trace-sample of the
// rest; -trace-slow sets the slow bar). -log-format/-log-level shape
// the structured log stream every subsystem writes to.
//
//	neogeod -addr :8080 -shards 4 -workers 8 \
//	    -wal /var/lib/neogeo/queue.wal -data-dir /var/lib/neogeo/data \
//	    -debug-addr 127.0.0.1:6060 -log-format json
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	neogeo "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// Both listeners bound how long a client may take to send its request
// headers and how long a keep-alive connection may sit idle, so a
// client that stalls cannot hold a goroutine and a descriptor forever.
// There is deliberately no ReadTimeout or WriteTimeout: SSE streams and
// /debug/pprof/profile are long-lived by design.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		debugAddr  = flag.String("debug-addr", "", "private debug listener for pprof + metrics (empty: off; bind loopback in production)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		walPath    = flag.String("wal", "", "message-queue write-ahead log path (empty: in-memory)")
		dataDir    = flag.String("data-dir", "", "checkpoint directory for the integrated store (empty: store is not durable)")
		ckptEvery  = flag.Duration("checkpoint-interval", time.Minute, "background checkpoint period (requires -data-dir; 0 disables the loop)")
		ckptRetain = flag.Int("checkpoint-retain", 3, "checkpoint files kept after each write")
		names      = flag.Int("names", 2000, "synthetic gazetteer size")
		seed       = flag.Int64("seed", 2011, "gazetteer seed")
		shards     = flag.Int("shards", 1, "probabilistic store shard count")
		workers    = flag.Int("workers", 0, "pipeline worker-pool width (0 = GOMAXPROCS)")
		interval   = flag.Duration("drain-interval", 250*time.Millisecond, "background drain period")
		fbBatch    = flag.Int("feedback-batch", 16, "per-shard verdict count that triggers an immediate feedback apply (buffered verdicts also flush every drain interval)")
		decayEvery = flag.Duration("decay-interval", 0, "certainty-decay period (0: decay off)")
		decayFloor = flag.Float64("decay-floor", 0.05, "certainty below which a decayed record is deleted")
		ansCache   = flag.Int("answer-cache", 0, "answer-cache capacity in entries (0: every ask recomputes)")
		traceCap   = flag.Int("trace-recorder", 256, "span flight-recorder capacity in completed traces (0: tracing off)")
		traceSlow  = flag.Duration("trace-slow", time.Second, "always keep traces at least this slow")
		traceN     = flag.Int("trace-sample", 0, "keep 1 in N ordinary traces (0: only slow/errored/explain traces kept)")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	slog.SetDefault(logger)
	if *dataDir == "" {
		// No data directory means nowhere to checkpoint: keep the
		// serving layer's loop off instead of failing every interval.
		*ckptEvery = 0
	}

	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(*names),
		neogeo.WithGazetteerSeed(*seed),
		neogeo.WithQueueWAL(*walPath),
		neogeo.WithDataDir(*dataDir),
		neogeo.WithCheckpointRetain(*ckptRetain),
		neogeo.WithShards(*shards),
		neogeo.WithWorkers(*workers),
		neogeo.WithFeedbackBatch(*fbBatch),
		neogeo.WithAnswerCache(*ansCache),
		neogeo.WithTraceRecorder(*traceCap),
		neogeo.WithTraceSlowThreshold(*traceSlow),
		neogeo.WithTraceSampling(*traceN),
	)
	if err != nil {
		logger.Error("building system", "err", err)
		os.Exit(1)
	}
	defer sys.Close()

	srv := server.New(sys,
		server.WithDrainInterval(*interval),
		server.WithCheckpointInterval(*ckptEvery),
		server.WithDecayInterval(*decayEvery),
		server.WithDecayFloor(*decayFloor),
		server.WithSlog(logger),
	)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := newHTTPServer(*addr, srv)
	var debugSrv *http.Server
	if *debugAddr != "" {
		// The debug mux is assembled by hand rather than from
		// http.DefaultServeMux, so nothing else that registers there
		// leaks onto the listener, and pprof stays off the public mux
		// entirely.
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(obs.Default()))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/traces", obs.TracesHandler(obs.DefaultRecorder))
		debugSrv = newHTTPServer(*debugAddr, mux)
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		srv.Run(ctx)
	}()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shutdownCtx)
		}
	}()

	logger.Info("neogeod listening", "addr", *addr, "shards", *shards, "drain_interval", *interval, "data_dir", *dataDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serving", "err", err)
		os.Exit(1)
	}
	// Let the drain loop finish its pass so accepted messages are not
	// stranded in flight before the WAL-backed queue closes.
	<-drainDone
	// The loop can exit with messages still pending (accepted between
	// its last tick and the signal); one final pass integrates them so
	// the shutdown checkpoint covers everything that was accepted.
	for _, err := range sys.Drain(context.Background(), 0) {
		if err != nil {
			logger.Error("final drain", "err", err)
		}
	}
	// Apply any feedback still buffered so the shutdown checkpoint
	// covers every accepted verdict (the ledger would replay them
	// anyway, but a clean stop should leave nothing to replay).
	if _, err := sys.FlushFeedback(context.Background()); err != nil {
		logger.Error("final feedback flush", "err", err)
	}
	// Final checkpoint, ordered after the drain wound down (the image
	// covers everything integrated) and before Close releases the WAL:
	// a graceful restart then recovers from the checkpoint alone.
	if *dataDir != "" {
		if info, err := sys.Checkpoint(context.Background()); err != nil {
			logger.Error("final checkpoint failed (the queue WAL still covers the gap)", "err", err)
		} else {
			logger.Info("final checkpoint written", "seq", info.Seq, "bytes", info.Bytes)
		}
	}
}
