// Command divexplorer-server runs the DivExplorer HTTP API: POST a CSV
// to /analyze for a synchronous divergence analysis, use the job API
// (POST /datasets, POST /jobs, GET /jobs/{id}) to mine asynchronously on
// a bounded worker pool, or POST /explore for budgeted anytime queries
// and lattice navigation over a registered dataset. See internal/server
// for endpoint documentation.
//
// With -store-dir the job engine is durable: every lifecycle transition
// is written ahead to a JSON-lines log in that directory, replayed on
// the next boot, and streamed as partial-result snapshots while mining.
// With -spill-dir the dataset registry gains a disk tier: datasets
// evicted by the memory budget are written to checksummed spill files
// and reloaded (verified against their content hash) on the next use,
// so a restart plus -store-dir serves full pre-crash results without
// re-uploads.
//
// With -node-id and -peers the server joins a fault-tolerant cluster:
// datasets and jobs are placed on a consistent-hash ring (-replication
// owners per content hash), async submits of every kind on a non-owner
// are forwarded to an owner with hedged retries, accepted work
// replicates to the other owners, and a dead node's jobs are adopted by
// a surviving replica as their own kind (phi-accrual failure detection
// over gossip heartbeats). With
// -tenant-quotas, the job engine admits every async job per tenant
// (X-Tenant header) — POST /jobs and async /explore and /significance —
// answering quota and rate denials with 429, and drains its queue by
// weighted fair queueing instead of FIFO. See DESIGN.md §16.
//
//	divexplorer-server -addr :8080 -workers 4 -job-timeout 5m
//	divexplorer-server -store-dir /var/lib/divexplorer -snapshot-every 2s
//	divexplorer-server -store-dir /var/lib/divexplorer -spill-dir /var/lib/divexplorer/spill -spill-budget-bytes 1073741824
//	divexplorer-server -addr :8081 -node-id n1 -peers 'n1=http://h1:8081,n2=http://h2:8081' -replication 2 -tenant-quotas '*:rate=50;acme:weight=3'
//	curl --data-binary @data.csv 'http://localhost:8080/analyze?truth=label&pred=predicted&format=html'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/monitor"
	"repro/internal/registry"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 64, "max queued jobs before submissions get HTTP 429")
		datasetCache = flag.Int64("dataset-cache-bytes", server.DefaultDatasetCacheBytes,
			"dataset registry budget in bytes (0 = unlimited)")
		resultCache = flag.Int("result-cache", 128, "result cache capacity in entries")
		jobTimeout  = flag.Duration("job-timeout", 5*time.Minute, "per-job deadline (0 = none)")
		maxBody     = flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes,
			"max request body size in bytes; larger uploads get HTTP 413")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long shutdown waits for queued jobs before canceling them")
		storeDir = flag.String("store-dir", "",
			"directory for the durable job store; empty disables persistence")
		snapshotEvery = flag.Duration("snapshot-every", 2*time.Second,
			"min interval between persisted partial-result snapshots (0 = every update)")
		spillDir = flag.String("spill-dir", "",
			"directory for the dataset disk-spill tier; empty evicts to nowhere (datasets are lost on eviction)")
		spillBudget = flag.Int64("spill-budget-bytes", 0,
			"disk byte budget for spilled datasets (0 = unlimited); oldest spill files are evicted first")
		exploreCache = flag.Int("explore-cache", 64,
			"anytime-explore outcome cache capacity in entries (POST /explore)")
		exploreSessions = flag.Int("explore-sessions", 16,
			"max resident lattice-navigation sessions (one per dataset and label-column pair)")
		sigCache = flag.Int("sig-cache", 64,
			"significance outcome cache capacity in entries (POST /significance)")
		maxPermutations = flag.Int("max-permutations", 100000,
			"max label permutations a significance request may run (n! in exhaustive mode)")
		monitorQueue = flag.Int("monitor-queue", 64,
			"per-monitor ingest buffer in batches before ingest gets HTTP 429")
		maxMonitors = flag.Int("max-monitors", 32,
			"max concurrently live streaming monitors")
		nodeID = flag.String("node-id", "",
			"this node's cluster member ID (required with -peers)")
		peersFlag = flag.String("peers", "",
			"cluster members as comma-separated id=http://host:port pairs; the entry matching "+
				"-node-id, if present, is skipped, so one value works for every node. Empty runs single-node")
		replication = flag.Int("replication", cluster.DefaultReplication,
			"how many nodes own each dataset (clamped to the cluster size)")
		tenantQuotas = flag.String("tenant-quotas", "",
			"per-tenant admission limits, e.g. '*:rate=10;alpha:weight=3,rate=50,burst=100;beta:jobs=2,bytes=1048576' "+
				"(keys: weight, rate, burst, jobs, bytes; '*' sets the defaults). Empty disables admission control")
	)
	flag.Parse()

	reg := registry.New(*datasetCache)
	if *spillDir != "" {
		// Attach the disk tier before any traffic: in-memory eviction then
		// spills the dataset to a checksummed file instead of dropping it,
		// and registry misses fall through to a verified disk load.
		sp, err := registry.OpenSpill(*spillDir, *spillBudget, nil)
		if err != nil {
			log.Fatalf("opening spill dir %s: %v", *spillDir, err)
		}
		reg.AttachSpill(sp, server.CSVOptions())
		st := sp.Stats()
		log.Printf("dataset spill tier %s attached (%d files, %d bytes resident)",
			*spillDir, st.Files, st.Bytes)
	}
	// Per-tenant admission: the engine gates every async job on quotas
	// and rate limits and queues by weighted fair queueing.
	var ctrl *admission.Controller
	if *tenantQuotas != "" {
		defaults, perTenant, err := admission.ParseLimits(*tenantQuotas)
		if err != nil {
			log.Fatalf("parsing -tenant-quotas: %v", err)
		}
		ctrl = admission.NewController(defaults, perTenant, nil)
		log.Printf("admission control on (%d tenant overrides, weighted fair queueing)", len(perTenant))
	}
	engine, err := jobs.New(jobs.Config{
		Registry:                 reg,
		Workers:                  *workers,
		Admission:                ctrl,
		QueueDepth:               *queueDepth,
		ResultCacheEntries:       *resultCache,
		DefaultTimeout:           *jobTimeout,
		SnapshotEvery:            *snapshotEvery,
		ExploreCacheEntries:      *exploreCache,
		ExploreSessions:          *exploreSessions,
		SignificanceCacheEntries: *sigCache,
		MaxPermutations:          *maxPermutations,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *storeDir != "" {
		// Replay the write-ahead log before serving traffic: completed
		// results come back as durable summaries, interrupted jobs are
		// re-marked failed, and the store stays attached for write-through.
		n, err := engine.Recover(*storeDir)
		if err != nil {
			log.Fatalf("recovering job store %s: %v", *storeDir, err)
		}
		log.Printf("job store %s attached (%d jobs recovered)", *storeDir, n)
	}
	monitors := monitor.NewManager(monitor.Config{
		QueueDepth:  *monitorQueue,
		MaxMonitors: *maxMonitors,
		Store:       engine.Store(), // nil without -store-dir: monitors stay ephemeral
	})
	if n, err := monitors.Recover(); err != nil {
		log.Printf("monitor recovery: %v (%d monitors restored)", err, n)
	} else if n > 0 {
		log.Printf("%d streaming monitors recovered (windows restart empty)", n)
	}
	api, err := server.New(server.Options{
		MaxBodyBytes: *maxBody,
		Registry:     reg,
		Engine:       engine,
		Monitors:     monitors,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Cluster tier: consistent-hash placement over the member set, with
	// this server as the node's local execution side.
	var node *cluster.Node
	if *peersFlag != "" {
		if *nodeID == "" {
			log.Fatal("-peers requires -node-id")
		}
		self := cluster.NodeID(*nodeID)
		urls := make(map[cluster.NodeID]string)
		var peerIDs []cluster.NodeID
		for _, pair := range strings.Split(*peersFlag, ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			id, url, ok := strings.Cut(pair, "=")
			if !ok {
				log.Fatalf("bad -peers entry %q (want id=http://host:port)", pair)
			}
			if cluster.NodeID(id) == self {
				continue
			}
			urls[cluster.NodeID(id)] = url
			peerIDs = append(peerIDs, cluster.NodeID(id))
		}
		node, err = cluster.NewNode(cluster.Options{
			Self:              self,
			Peers:             peerIDs,
			ReplicationFactor: *replication,
			HeartbeatEvery:    cluster.DefaultHeartbeatEvery,
			Transport:         cluster.NewHTTPTransport(urls, nil),
			Local:             api.ClusterLocal(),
			Logf:              log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		api.AttachCluster(node)
		node.Start()
		log.Printf("cluster node %s up (%d members, replication %d)",
			self, len(peerIDs)+1, node.Replication())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("divexplorer-server listening on %s (workers=%d queue=%d)",
		*addr, engine.Stats().Workers, *queueDepth)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain the job
	// queue so accepted work still completes (up to the drain timeout).
	log.Printf("shutting down: draining jobs (timeout %s)", *drainTimeout)
	if node != nil {
		node.Close() // stop gossiping before the engine drains
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := api.Close(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("engine shutdown: %v", err)
	}
	log.Print("bye")
}
