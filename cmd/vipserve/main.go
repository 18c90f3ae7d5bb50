// Command vipserve runs the simulator as a long-lived HTTP service with
// a content-addressed result cache: repeat submissions of the same
// scenario are answered byte-identical from cache instead of
// re-simulating, identical in-flight submissions coalesce onto one run,
// and load beyond the admission queue is shed with a retryable 429.
//
// A job's id is its scenario hash. With -cache-dir DIR the service is
// also crash-safe: before an async job is acknowledged, a pending
// marker holding its request is fsynced beside its result slot in DIR,
// and a restart re-enqueues every marker whose result is missing, so
// jobs interrupted mid-run are re-simulated to byte-identical results
// and finished ones stay queryable from their results. SIGTERM/SIGINT
// triggers a graceful drain (admission stops, /ready flips to 503,
// in-flight jobs finish) bounded by -drain-timeout.
//
// Usage:
//
//	vipserve -addr :8080
//	vipserve -addr :8080 -cache-dir /var/cache/vip -workers 8 -queue 128
//
// Then:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/ready
//	curl -s -X POST localhost:8080/v1/sim -d '{"apps":["A5","A5"],"duration_ms":100}'
//	curl -s -X POST 'localhost:8080/v1/sim?async=1' -d '{"apps":["W4"]}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -N localhost:8080/v1/sim/stream
//	curl -s localhost:8080/v1/cache/stats
//	curl -s localhost:8080/metrics | grep vip_serve_
//
// See EXPERIMENTS.md for the full endpoint and flag reference, and
// ARCHITECTURE.md for where the service sits in the stack.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/vipsim/vip/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation workers (0 = CPU count, capped)")
	queue := flag.Int("queue", 64, "admission queue depth; beyond it requests shed with 429")
	cacheEntries := flag.Int("cache-entries", 256, "in-memory result cache entries (LRU)")
	cacheDir := flag.String("cache-dir", "", "optional on-disk result cache directory; results and accepted async jobs survive crashes and restarts")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on finishing in-flight jobs during graceful shutdown")
	syncDeadline := flag.Duration("sync-deadline", 60*time.Second, "default deadline of synchronous requests")
	bulkDeadline := flag.Duration("bulk-deadline", 15*time.Minute, "EDF deadline horizon of async (bulk) requests")
	maxJobs := flag.Int("max-jobs", 1024, "retained job records for /v1/jobs")
	accessLog := flag.String("access-log", "", "write one JSON line per request to this file (\"-\" for stdout)")
	streamInterval := flag.Duration("stream-interval", time.Second, "period of /v1/sim/stream snapshots (negative disables them, leaving job events only)")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "vipserve: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	var logw io.Writer
	switch *accessLog {
	case "":
	case "-":
		logw = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vipserve:", err)
			os.Exit(1)
		}
		defer f.Close()
		logw = f
	}

	// The cache directory carries durability (the pending markers of
	// accepted jobs), so one that cannot be written is a configuration
	// error: fail fast instead of refusing every async submission later.
	if *cacheDir != "" {
		if err := checkDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "vipserve: cache dir:", err)
			os.Exit(1)
		}
	}
	s := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		SyncDeadline:   *syncDeadline,
		BulkDeadline:   *bulkDeadline,
		MaxJobs:        *maxJobs,
		AccessLog:      logw,
		StreamInterval: *streamInterval,
		EnablePprof:    *enablePprof,
	})
	bound, err := s.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vipserve:", err)
		os.Exit(1)
	}
	fmt.Printf("vipserve listening on %s (queue %d, cache %d entries", bound, *queue, *cacheEntries)
	if *cacheDir != "" {
		fmt.Printf(", disk %s", *cacheDir)
	}
	fmt.Println(")")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("vipserve: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "vipserve: drain:", err)
	}
	cancel()
	fmt.Println("vipserve: shutting down")
	_ = s.Close()
}

// checkDir creates dir if needed and proves it writable.
func checkDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	return errors.Join(f.Close(), os.Remove(f.Name()))
}
