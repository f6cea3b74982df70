// Command polorad is the policy-oracle daemon: a long-lived HTTP service
// over a content-addressed policy store. Clients upload library bundles,
// the daemon extracts their MAY/MUST security policies once per distinct
// bundle, and diff requests between fingerprints are served from cache.
//
// Usage:
//
//	polorad [flags]
//
// Flags:
//
//	-addr addr        listen address (default :8075)
//	-store dir        store directory (default polorad-store)
//	-parallel N       oracle workers per extraction (0 = GOMAXPROCS)
//	-max-inflight N   concurrent extractions across fingerprints (default 2)
//	-cache N          in-memory policy-blob LRU entries (0 disables, default 128)
//	-domains ids      comma-separated check-domain IDs to serve (default:
//	                  every registered domain); requests naming another
//	                  domain fail with the stable unknown_domain code
//	-log-format fmt   structured log output: text or json (default text)
//	-log-level lvl    minimum level: debug, info, warn, error (default info)
//	-pprof            expose net/http/pprof under /debug/pprof/
//	-campaigns        execute coverage-guided campaign shards posted to
//	                  /v1/campaign (the worker side of `polora fuzz
//	                  -remote`); off by default since a shard is
//	                  CPU-minutes driven by a request body
//	-watch            run the reconcile controller: every PUT (and every
//	                  -interval tick) re-diffs all registered library
//	                  pairs and appends drift observations to -drift-store
//	-interval d       full reconcile rescan period (default 30s)
//	-drift-store f    drift-timeline file (default <store>/drift.json)
//	-drift-threshold N fire a pair's drift alert at N deviations (0 = off)
//	-peers addrs      comma-separated replica addresses of the whole tier,
//	                  this node included: on a local miss the store fetches
//	                  the blob from the fingerprint's consistent-hash owner
//	                  (GET /v1/blob/{fp}) before extracting locally
//	-advertise addr   this node's own address within -peers (required with
//	                  -peers; must match one member string exactly)
//	-batch-workers N  concurrent items per /v1/batch request (default 4)
//
// Metrics are always served at GET /metricsz in Prometheus text format;
// DESIGN.md's Observability section documents the series.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests; if the drain deadline passes, remaining request contexts are
// cancelled so in-flight extractions stop instead of running to
// completion against no caller. API and wire formats are documented in
// internal/server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"policyoracle"
	"policyoracle/internal/reconcile"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8075", "listen address")
	storeDir := flag.String("store", "polorad-store", "policy store directory")
	parallel := flag.Int("parallel", 0, "oracle extraction workers per analysis mode (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 2, "concurrent extractions across distinct fingerprints")
	cache := flag.Int("cache", 128, "in-memory policy-blob LRU entries (0 disables the cache)")
	domains := flag.String("domains", "", "comma-separated check-domain IDs to serve (empty = all registered)")
	logFormat := flag.String("log-format", "text", "structured log output: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	campaigns := flag.Bool("campaigns", false, "execute campaign shards posted to /v1/campaign")
	watch := flag.Bool("watch", false, "run the reconcile controller (continuous policy-drift monitoring)")
	interval := flag.Duration("interval", 30*time.Second, "full reconcile rescan period (with -watch)")
	driftStore := flag.String("drift-store", "", "drift-timeline file (default <store>/drift.json)")
	driftThreshold := flag.Int("drift-threshold", 0, "fire a pair's drift alert at this many deviations (0 disables)")
	peers := flag.String("peers", "", "comma-separated replica addresses of the whole tier, including this node (enables the peer store tier)")
	advertise := flag.String("advertise", "", "this node's own address within -peers (required with -peers)")
	batchWorkers := flag.Int("batch-workers", 0, "concurrent items per /v1/batch request (0 = default 4)")
	flag.Parse()
	if *cache == 0 {
		// On the flag, 0 means "no cache"; the store treats 0 as "use the
		// default" and negative as disabled, so translate.
		*cache = -1
	}
	if err := run(config{
		addr:           *addr,
		storeDir:       *storeDir,
		parallel:       *parallel,
		maxInflight:    *maxInflight,
		cache:          *cache,
		domains:        *domains,
		logFormat:      *logFormat,
		logLevel:       *logLevel,
		pprof:          *pprofOn,
		campaigns:      *campaigns,
		watch:          *watch,
		interval:       *interval,
		driftStore:     *driftStore,
		driftThreshold: *driftThreshold,
		peers:          *peers,
		advertise:      *advertise,
		batchWorkers:   *batchWorkers,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "polorad: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	addr, storeDir        string
	parallel, maxInflight int
	cache                 int
	domains               string
	logFormat, logLevel   string
	pprof                 bool
	campaigns             bool
	watch                 bool
	interval              time.Duration
	driftStore            string
	driftThreshold        int
	peers, advertise      string
	batchWorkers          int
}

// splitTrim splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func splitTrim(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func run(cfg config) error {
	level, err := telemetry.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	// Validate -domains up front: serving an unregistered domain ID would
	// otherwise only surface as unknown_domain on every request.
	var domainIDs []string
	if cfg.domains != "" {
		for _, id := range strings.Split(cfg.domains, ",") {
			id = strings.TrimSpace(id)
			d, err := policyoracle.ResolveDomain(id)
			if err != nil {
				return fmt.Errorf("-domains: %w", err)
			}
			domainIDs = append(domainIDs, d.ID())
		}
	}
	logger, err := telemetry.NewLogger(os.Stderr, cfg.logFormat, level)
	if err != nil {
		return err
	}
	// One registry spans the service, the store, and the extractor, so a
	// single /metricsz scrape sees every layer.
	registry := telemetry.New()
	var backends []store.Backend
	if cfg.peers != "" {
		members := splitTrim(cfg.peers)
		if cfg.advertise == "" {
			return fmt.Errorf("-peers requires -advertise (this node's own address within the peer list)")
		}
		found := false
		for _, m := range members {
			if m == cfg.advertise {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("-advertise %q is not in -peers %q; member strings must match exactly "+
				"(they are the ring identity every replica and client hashes)", cfg.advertise, cfg.peers)
		}
		backends = append(backends, store.NewPeerBackend(store.PeerConfig{
			Members:  members,
			Self:     cfg.advertise,
			Registry: registry,
			Logger:   logger,
		}))
	} else if cfg.advertise != "" {
		return fmt.Errorf("-advertise requires -peers")
	}
	st, err := store.Open(store.Config{
		Dir:          cfg.storeDir,
		CacheEntries: cfg.cache,
		Parallel:     cfg.parallel,
		MaxInflight:  cfg.maxInflight,
		Backends:     backends,
		Registry:     registry,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	var ctrl *reconcile.Controller
	if cfg.watch {
		path := cfg.driftStore
		if path == "" {
			path = filepath.Join(cfg.storeDir, "drift.json")
		}
		ctrl, err = reconcile.New(reconcile.Config{
			Store:          st,
			Path:           path,
			Interval:       cfg.interval,
			AlertThreshold: cfg.driftThreshold,
			Registry:       registry,
			Logger:         logger,
		})
		if err != nil {
			return err
		}
	}

	// Request contexts derive from baseCtx: cancelling it after a failed
	// drain aborts whatever extractions are still running.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Addr: cfg.addr,
		Handler: server.New(st, server.Options{
			Registry:     registry,
			Logger:       logger,
			Pprof:        cfg.pprof,
			Drift:        ctrl,
			Domains:      domainIDs,
			Campaigns:    cfg.campaigns,
			BatchWorkers: cfg.batchWorkers,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The reconcile loop stops with the server; its timeline is persisted
	// on every append, so a kill at any point resumes cleanly.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	watchDone := make(chan struct{})
	if ctrl != nil {
		go func() {
			defer close(watchDone)
			ctrl.Run(watchCtx)
		}()
	} else {
		close(watchDone)
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("polorad: serving", "addr", cfg.addr, "store", cfg.storeDir,
			"max_inflight", cfg.maxInflight, "pprof", cfg.pprof, "watch", cfg.watch,
			"campaigns", cfg.campaigns, "peers", cfg.peers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("polorad: shutting down")
	stopWatch()
	<-watchDone
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("polorad: drain deadline passed, cancelling in-flight work", "err", err)
		cancelBase()
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("polorad: stopped")
	return nil
}
