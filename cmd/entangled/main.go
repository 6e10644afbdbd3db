// Command entangled is the long-lived checker daemon: it serves
// refinement checks over HTTP while keeping one warm content-addressed
// verdict cache (and one materialized lemma registry) across requests,
// so repeated checks of unchanged operators replay stored verdicts
// instead of re-saturating.
//
//	entangled -addr :8372 -cache /var/cache/entangle
//
// With -peers, the daemon joins a sharded checker fleet: each verdict
// fingerprint has exactly one owning node (rendezvous hashing over the
// static member list), verdicts are fetched from their owners in one
// round trip per owner per check and forwarded to them in batches
// behind the check, over /v1/peer/verdicts, and every fleet failure
// mode degrades to a local cold check — slower, never wrong:
//
//	entangled -addr :8372 -cache /var/a -self a \
//	          -peers a=http://10.0.0.1:8372,b=http://10.0.0.2:8372
//
// Endpoints (see internal/server):
//
//	POST /v1/check    {"gs": <graph>, "gd": <graph>, "rel": {...}}
//	POST /v1/recheck
//	POST|PUT /v1/peer/verdicts   (fleet nodes only; verdict batches)
//	GET  /v1/healthz
//	GET  /v1/stats
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// checks run to completion, a fleet node then hands the verdicts it
// still has queued to their owners (all of it bounded by
// -drain-timeout), and the process exits 0. Exit status 2 reports a
// startup error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"entangle"
	"entangle/internal/cluster"
	"entangle/internal/server"
	"entangle/internal/vcache"
)

// options is everything the command line sets.
type options struct {
	addr, cache, self, peers                string
	workers, maxConcurrent                  int
	requestTimeout, drainTimeout            time.Duration
	headerTimeout, readTimeout, idleTimeout time.Duration
	maxBodyBytes                            int64
}

// newFlagSet defines the daemon's flags, all of them and only here:
// main parses the set and the README test walks it.
func newFlagSet(name string) (*flag.FlagSet, *options) {
	o := new(options)
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8372", "listen address")
	fs.StringVar(&o.cache, "cache", "", "verdict cache directory shared across requests (empty = in-memory cache only)")
	fs.IntVar(&o.workers, "workers", 0, "per-check worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", 0, "simultaneous checks (0 = GOMAXPROCS); further requests queue")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 5*time.Minute, "default per-check deadline when the request carries none (0 = none)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for in-flight checks and, in a fleet, the forwards queued behind them")

	// Transport hardening: every stage of an HTTP exchange gets a
	// deadline so one slow or malicious client can never pin a
	// connection (and its goroutine) forever. Writing a response has
	// its own, which the server sets as the write starts.
	fs.DurationVar(&o.headerTimeout, "read-header-timeout", 10*time.Second, "deadline for reading a request's headers")
	fs.DurationVar(&o.readTimeout, "read-timeout", 2*time.Minute, "deadline for reading a whole request including its body")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is kept open")
	fs.Int64Var(&o.maxBodyBytes, "max-body-bytes", 0, "request body cap; oversized requests get 413 (0 = 64 MiB)")

	fs.StringVar(&o.self, "self", "", "this node's fleet member ID (required with -peers)")
	fs.StringVar(&o.peers, "peers", "", "static fleet member list as id=url,... including this node; enables sharded peer caching")
	return fs, o
}

func main() {
	fs, o := newFlagSet(os.Args[0])
	_ = fs.Parse(os.Args[1:]) // ExitOnError

	// The daemon always runs with a verdict cache — sharing warm
	// verdicts across requests is its reason to exist. -cache adds the
	// on-disk layer so warmth survives restarts.
	vc, err := entangle.OpenVerdictCache(entangle.VerdictCacheConfig{Dir: o.cache})
	if err != nil {
		fatal("opening cache: %v", err)
	}

	// In a fleet, the checker consults the cluster-routing store while
	// peers are served the raw local shard directly; single-node daemons
	// use the local cache for both.
	var store entangle.VerdictStore = vc
	var local *vcache.Cache
	var clusterInfo func() any
	var fleet *cluster.Cache
	if o.peers != "" {
		if o.self == "" {
			fatal("-peers requires -self")
		}
		members, err := cluster.ParsePeers(o.peers)
		if err != nil {
			fatal("%v", err)
		}
		ms, err := cluster.NewMembership(o.self, members)
		if err != nil {
			fatal("%v", err)
		}
		client := cluster.NewClient(cluster.ClientConfig{Transport: &cluster.HTTPTransport{}})
		fleet, err = cluster.NewCache(cluster.CacheConfig{Membership: ms, Local: vc, Client: client})
		if err != nil {
			fatal("%v", err)
		}
		store, local = fleet, vc
		clusterInfo = func() any {
			return map[string]any{
				"self":    ms.Self().ID,
				"members": len(ms.Members()),
				"cache":   fleet.ClusterStats(),
				"client":  fleet.ClientStats(),
			}
		}
	} else if o.self != "" {
		fatal("-self requires -peers")
	}

	srv := server.New(server.Config{
		Options: entangle.CheckerOptions{
			Workers: o.workers,
			Cache:   store,
		},
		MaxConcurrent:  o.maxConcurrent,
		DefaultTimeout: o.requestTimeout,
		MaxBodyBytes:   o.maxBodyBytes,
		Local:          local,
		ClusterInfo:    clusterInfo,
	})
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv,
		ReadHeaderTimeout: o.headerTimeout,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "entangled: listening on %s (cache %s%s)\n", o.addr, cacheDesc(o.cache), fleetDesc(fleet))

	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
	}

	// Graceful drain: flip the admission gate first so no new check is
	// admitted — even on connections already open — then stop the
	// listener and let in-flight checks finish; they still fetch from
	// peers, while peers asking this node are told 503 and degrade to
	// their own cold checks. Checks do not wait for their forwards, so
	// once the last one has answered, the forwarder gets what is left of
	// the drain timeout to deliver its queue; whatever Close then finds
	// undelivered is counted as failed (the verdicts are safe locally).
	// The gate's drain protocol is exhaustively model-checked
	// (entangle-mc -model daemon).
	fmt.Fprintln(os.Stderr, "entangled: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	go func() { _ = srv.Drain(drainCtx) }()
	err = httpSrv.Shutdown(drainCtx)
	if fleet != nil {
		_ = fleet.Flush(drainCtx) // an expired deadline is Close's to count
		fleet.Close()
	}
	_ = vc.Close() // nothing stores any more: release the segments
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "entangled: drained")
}

func cacheDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}

func fleetDesc(fleet *cluster.Cache) string {
	if fleet == nil {
		return ""
	}
	ms := fleet.Membership()
	return fmt.Sprintf(", fleet %s of %d nodes", ms.Self().ID, len(ms.Members()))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "entangled: "+format+"\n", args...)
	os.Exit(2)
}
