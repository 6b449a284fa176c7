// Command sherlock-serve runs the compile-once serve-many front door: an
// HTTP service that compiles C-subset kernels behind a content-addressed
// registry (the map → schedule → merge → predecode pipeline runs at most
// once per unique program), coalesces concurrent callers' vectors into
// shared 256-lane executor passes, and routes each request to the CIM
// simulator or the host CPU baseline by modeled latency.
//
// Usage:
//
//	sherlock-serve [-addr :8437] [-window 200us] [-batch-lanes 256]
//	               [-max-programs N] [-max-bytes N] [-parallelism N]
//	               [-passes N] [-backend auto|cim|cpu]
//
// Endpoints: POST /v1/compile, POST /v1/run, GET /v1/stats, GET /healthz
// (see internal/serve for the request shapes).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sherlock/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	window := flag.Duration("window", 200*time.Microsecond,
		"batch window: how long the first request of a batch waits for company; it opens only while a kernel's requests "+
			"arrive denser than one per window, and an idle process wakes its timers at 1ms granularity (negative disables the timer)")
	batchLanes := flag.Int("batch-lanes", 256, "lane count that flushes a batch (256 = one full executor pass)")
	maxPrograms := flag.Int("max-programs", 1024, "compiled programs kept resident (0 = unbounded)")
	maxBytes := flag.Int64("max-bytes", 256<<20, "estimated resident program bytes (0 = unbounded)")
	parallelism := flag.Int("parallelism", 0,
		"concurrent chunks per executor pass, merged or direct (0 = GOMAXPROCS)")
	passes := flag.Int("passes", 0, "concurrent executor passes across all kernels (0 = unlimited)")
	backend := flag.String("backend", "auto", "execution backend: auto (cost-model routing), cim, or cpu")
	flag.Parse()

	force, err := serve.ParseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	svc := serve.NewService(serve.Config{
		Registry:            serve.RegistryConfig{MaxPrograms: *maxPrograms, MaxBytes: *maxBytes},
		Window:              *window,
		MaxBatchLanes:       *batchLanes,
		Parallelism:         *parallelism,
		MaxConcurrentPasses: *passes,
		Backend:             force,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(svc),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		svc.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	log.Printf("sherlock-serve listening on %s (window %v, batch %d lanes, backend %s)",
		*addr, *window, *batchLanes, *backend)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	st := svc.Stats()
	fmt.Printf("served %d vectors: %d cim / %d cpu requests, %d compiles, %d cache hits\n",
		st.Vectors, st.CIMRequests, st.CPURequests, st.Registry.Misses, st.Registry.Hits)
}
