// Command worker joins a coordinator's sweep (see cmd/coordinator and
// internal/farm): it fetches the suite once, then leases scenario names,
// runs each lease's sub-suite (the owned scenario plus its helper golden
// runs, recovered via SuiteSpec.Subset) through the ordinary campaign
// path, and streams the JSONL rows back. Workers are stateless — all
// they accumulate is a golden cache — so they can be killed, added, and
// restarted freely at any point in the sweep.
//
// Usage:
//
//	worker -coordinator http://127.0.0.1:7333
//	worker -coordinator http://host:7333 -name rig2 -poll 250ms
//	worker -coordinator http://host:7333 -max 5   # drain 5 leases, then exit
//	worker -coordinator http://host:7333 -golden-store /shared/goldens
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

	"offramps"
	"offramps/internal/farm"
	"offramps/internal/farm/faults"
	"offramps/internal/goldenstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var (
		coord   = fs.String("coordinator", "", "coordinator base `URL`, e.g. http://127.0.0.1:7333 (required)")
		name    = fs.String("name", "", "worker name shown in coordinator status (default host-pid)")
		dir     = fs.String("dir", ".", "directory resolving the suite's relative program references")
		poll    = fs.Duration("poll", 500*time.Millisecond, "wait between lease polls while the queue is empty")
		retries = fs.Int("retries", 10, "consecutive transport failures tolerated before giving up")
		max     = fs.Int("max", 0, "exit after completing this many scenarios (0 = run until the sweep is done)")
		store   = fs.String("golden-store", "", "persist golden runs in `dir`, shared across workers and restarts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v (the suite comes from the coordinator)", fs.Args())
	}
	if *coord == "" {
		fs.Usage()
		return fmt.Errorf("-coordinator is required")
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	// A restarted worker loses its in-memory goldens; -golden-store lets
	// it warm back up from disk instead of re-simulating, and lets
	// co-located workers share one golden pool.
	cache := offramps.NewGoldenCache()
	if *store != "" {
		gs, err := goldenstore.Open(*store)
		if err != nil {
			return fmt.Errorf("golden-store: %w", err)
		}
		cache.AttachStore(gs)
	}

	w := &farm.Worker{
		Client:  &farm.Client{Base: *coord},
		Name:    *name,
		Dir:     *dir,
		Cache:   cache,
		Poll:    *poll,
		Backoff: faults.Backoff{Attempts: *retries},
		Max:     *max,
		Log:     stdout,
	}
	// SIGTERM/SIGINT abandons the in-flight scenario cleanly: the lease
	// expires on the coordinator and another worker re-deals it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	n, err := w.Run(ctx)
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		fmt.Fprintf(stdout, "worker %s: interrupted after %d scenario(s); lease returns to the queue\n", *name, n)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "worker %s: exiting after %d scenario(s)\n", *name, n)
	return nil
}
