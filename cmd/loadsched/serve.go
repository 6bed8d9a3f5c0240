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

	"loadsched/internal/runner"
	"loadsched/internal/serve"
	"loadsched/internal/store"
)

// attachStore opens the persistent result store named by -store and layers
// it under the process-wide memo cache as the second-level result cache
// (memory → disk → compute). No-op without -store.
func (op *outputOptions) attachStore() {
	if op.store == "" {
		return
	}
	s, err := store.Open(op.store)
	if err != nil {
		fatal("store: %v", err)
	}
	runner.Shared().SetStore(s)
}

// runServe implements `loadsched serve`: an HTTP job API over the
// simulation pool. See internal/serve for the protocol.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8023", "listen address")
	storeDir := fs.String("store", "", "persistent result store directory (optional)")
	workers := fs.Int("j", 0, "concurrent simulations per job (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 2, "concurrently executing jobs")
	queue := fs.Int("queue", 8, "jobs queued behind the executing ones before 429")
	parseFlags(fs, args)

	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			fatal("serve: %v", err)
		}
		runner.Shared().SetStore(s)
		fmt.Fprintf(os.Stderr, "loadsched serve: result store at %s (%d entries)\n", s.Dir(), s.Len())
	}
	srv := serve.New(serve.Config{
		Workers:       *workers,
		MaxConcurrent: *jobs,
		QueueDepth:    *queue,
		Logf:          func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("serve: %v", err)
	}
	// A client that never finishes its request headers must not hold its
	// connection forever.
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "loadsched serve: listening on http://%s\n", ln.Addr())

	// Graceful shutdown: stop accepting, let streaming jobs finish (bounded).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "loadsched serve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal("serve: %v", err)
	}
}
