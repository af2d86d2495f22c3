// Command letdmad is the crash-tolerant solver daemon: it serves the
// letdma solver stack over HTTP with bounded admission, per-job
// wall-clock deadlines, panic isolation, retry-with-backoff for transient
// faults, and a crash-safe job journal (see internal/serve and DESIGN.md
// section 16).
//
//	letdmad -addr 127.0.0.1:8355 -journal letdmad.journal -workers 2
//
// Endpoints:
//
//	GET  /healthz     liveness
//	GET  /readyz      readiness (503 while draining)
//	POST /jobs        submit a job spec (202 queued, 200 cached,
//	                  429 queue full, 503 draining)
//	GET  /jobs        list jobs in admission order
//	GET  /jobs/{key}  one job by content-addressed key
//	POST /jobs/batch  submit many specs (?wait=1 blocks until terminal)
//
// SIGINT or SIGTERM drains gracefully: admission stops, in-flight solves
// are interrupted at the next boundary and their anytime incumbents
// journaled, and the process exits 0. A killed daemon restarts from the
// journal: completed jobs are served from the result cache, pending ones
// are re-queued. Use `letdma submit` / `letdma status` as the client.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"letdma/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	os.Exit(run(os.Args[1:], sig, nil))
}

// httpDrainTimeout bounds the graceful HTTP shutdown; connections still
// open past it (e.g. a batch ?wait=1 blocked on a job the drain left
// pending) are force-closed. The solver drain itself is not bounded: it
// completes when every in-flight job reaches its next interrupt boundary.
const httpDrainTimeout = 10 * time.Second

// run starts the daemon and blocks until a signal arrives, then drains
// and returns the process exit code. The signal channel is injected so
// tests can drive the full drain path; ready (if non-nil) receives the
// bound listen address once the daemon is serving — with -addr :0 that is
// how tests learn the port.
func run(argv []string, sig <-chan os.Signal, ready chan<- string) int {
	fs := flag.NewFlagSet("letdmad", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8355", "listen address")
	journal := fs.String("journal", "letdmad.journal", "append-only job journal path (fsync'd; restart resumes from it)")
	workers := fs.Int("workers", 2, "jobs solved concurrently")
	queueCap := fs.Int("queue-cap", 64, "max incomplete admitted jobs before submissions get 429")
	deadline := fs.Duration("deadline", 60*time.Second, "default per-job wall-clock deadline; expiry completes the job with its anytime incumbent")
	retries := fs.Int("retries", 2, "max retries per job for transient faults (numerical-limit stops, failed optimality certificates)")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "first retry backoff, doubled per attempt")
	certTimeout := fs.Duration("cert-timeout", 30*time.Second, "time limit for the FastSearch optimality-certificate re-solve")
	quiet := fs.Bool("q", false, "suppress per-job log lines")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	cfg := serve.Config{
		Workers:         *workers,
		QueueCap:        *queueCap,
		JournalPath:     *journal,
		DefaultDeadline: *deadline,
		MaxRetries:      *retries,
		RetryBackoff:    *backoff,
		CertTimeLimit:   *certTimeout,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "letdmad: %v\n", err)
		return 1
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "letdmad: %v\n", err)
		if serr := srv.Shutdown(); serr != nil {
			fmt.Fprintf(os.Stderr, "letdmad: shutdown: %v\n", serr)
		}
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "letdmad: serving on %s (journal %s, %d workers)\n",
		ln.Addr(), *journal, *workers)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "letdmad: %v — draining\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "letdmad: serve: %v\n", err)
		if serr := srv.Shutdown(); serr != nil {
			fmt.Fprintf(os.Stderr, "letdmad: shutdown: %v\n", serr)
		}
		return 1
	}

	// Drain order: solvers first — Shutdown interrupts in-flight jobs at
	// their next boundary and journals the incumbents — then the HTTP
	// side, bounded because a waiting client could otherwise hold the
	// process open forever.
	code := 0
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "letdmad: shutdown: %v\n", err)
		code = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), httpDrainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		if cerr := hs.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "letdmad: close: %v\n", cerr)
		}
	}
	return code
}
