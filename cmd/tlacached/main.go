// Command tlacached is the simulation-as-a-service daemon: it accepts
// simulation jobs over HTTP, memoizes their result manifests in a
// two-tier content-addressed cache, coalesces identical concurrent
// requests onto one run, and sheds load with 429 + Retry-After when
// the admission gates reject.
//
// Run the daemon:
//
//	tlacached -addr 127.0.0.1:8321 -cache-dir /var/cache/tlacache
//	tlacached -queue 32 -rate 4 -burst 8 -workers 4
//
// Or drive one with the built-in client:
//
//	tlacached submit -server http://127.0.0.1:8321 -mix MIX_00 -policy qbs -wait
//	tlacached get    -server http://127.0.0.1:8321 v1:<key>
//	tlacached stats  -server http://127.0.0.1:8321
//
// On SIGINT/SIGTERM the daemon stops admitting work (503), drains
// in-flight simulations up to -drain, then exits; results computed
// during the drain are persisted to the cache directory first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tlacache/internal/cli"
	"tlacache/internal/service/api"
	"tlacache/internal/service/cache"
	"tlacache/internal/service/queue"
	"tlacache/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tlacached: ")
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "submit", "get", "stats":
			os.Exit(runClient(args[0], args[1:], os.Stdout, os.Stderr))
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(runDaemon(ctx, args, os.Stdout, os.Stderr))
}

// runDaemon runs the HTTP daemon until ctx is cancelled, then drains.
// It is main minus process concerns, so tests can run it with a
// cancelable context and an ephemeral port.
func runDaemon(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlacached", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	cacheDir := fs.String("cache-dir", "", "on-disk result cache directory (empty: memory-only)")
	memEntries := fs.Int("mem-entries", 0, "in-memory cache entries (0 = default, negative = disabled)")
	workers := fs.Int("workers", 2, "concurrently executing simulations")
	queueLimit := fs.Int("queue", 32, "max queued+running jobs before 429 (0 = unbounded)")
	rate := fs.Float64("rate", 0, "admitted jobs per second (0 = unlimited)")
	burst := fs.Float64("burst", 8, "admission burst capacity in jobs")
	drain := fs.Duration("drain", 30*time.Second, "shutdown deadline for in-flight simulations")
	debugAddr := fs.String("debug-addr", "", "serve expvar (/debug/vars, with the tlacached counters) and pprof (/debug/pprof/) on this address")
	logFormat := fs.String("log-format", "text", "request log format: text or json")
	logLevel := fs.String("log-level", "info", "request log level: debug, info, warn, error, or off")
	showVersion := fs.Bool("version", false, "print build version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, cli.Version())
		return 0
	}
	logger, err := buildLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "tlacached:", err)
		return 2
	}

	store, err := cache.New(cache.Config{Dir: *cacheDir, MemEntries: *memEntries})
	if err != nil {
		fmt.Fprintln(stderr, "tlacached:", err)
		return 1
	}
	var bucket *queue.TokenBucket
	if *rate > 0 {
		bucket = queue.NewTokenBucket(*rate, *burst, nil)
	}
	server, err := api.New(api.Config{
		Cache:     store,
		Admission: queue.NewAdmission(*queueLimit, bucket),
		Workers:   *workers,
		Version:   cli.Version(),
		Logger:    logger,
	})
	if err != nil {
		fmt.Fprintln(stderr, "tlacached:", err)
		return 1
	}
	api.PublishExpvars(server)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "tlacached:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "tlacached:", err)
			ln.Close()
			return 1
		}
	}
	fmt.Fprintf(stdout, "tlacached: listening on %s (cache-dir %q, workers %d, queue %d; metrics on /metrics)\n",
		bound, *cacheDir, *workers, *queueLimit)

	if *debugAddr != "" {
		dbgAddr, dbgSrv, err := telemetry.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(stderr, "tlacached:", err)
			ln.Close()
			return 1
		}
		defer dbgSrv.Close()
		fmt.Fprintf(stdout, "tlacached: debug introspection on http://%s/debug/vars and http://%s/debug/pprof/\n", dbgAddr, dbgAddr)
	}

	httpSrv := &http.Server{Handler: server.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(stderr, "tlacached:", err)
		return 1
	}

	// Shutdown: refuse new work first, then let in-flight simulations
	// finish (their results are worth seconds of compute), then close
	// the listener and any waiting request handlers.
	fmt.Fprintf(stdout, "tlacached: draining (deadline %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := server.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "tlacached:", err)
		code = 1
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "tlacached:", err)
		code = 1
	}
	fmt.Fprintln(stdout, "tlacached: bye")
	return code
}

// buildLogger maps the -log-format/-log-level flags to a slog.Logger
// writing to w; level "off" returns nil, disabling request logging.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	if strings.EqualFold(level, "off") {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (text or json)", format)
	}
}
