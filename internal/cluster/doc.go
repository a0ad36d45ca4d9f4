// Package cluster is the transport-agnostic placement + replication
// layer between internal/server and internal/registry: it decides which
// peers own a content-addressed dataset, keeps track of which peers are
// alive, forwards work to owners, and replicates the durable artifacts
// (checksummed spill payloads and WAL-style job records) so a node death
// degrades to a re-mine on a replica instead of data loss.
//
// The layer is built from four orthogonal pieces:
//
//   - Ring (ring.go): a consistent-hash ring with virtual nodes and a
//     rendezvous tiebreak. Owners(key, r) returns the r distinct nodes
//     placed after the key's point on the ring — the replica set, in
//     priority order. Adding or removing a node moves only the keys
//     adjacent to its virtual points.
//
//   - Health (phi.go, health.go): a phi-accrual failure detector per
//     peer fed by a heartbeat gossip loop. Heartbeats piggyback the
//     sender's view of every peer's latest sequence number, so one
//     reachable path is enough to keep a node alive; suspicion is a
//     continuous phi value, and a peer is declared dead only when phi
//     crosses the configured threshold.
//
//   - Transport (transport.go): the three verbs the layer needs —
//     Heartbeat, ForwardJob, Replicate — behind an interface. The
//     in-memory implementation (memtransport.go) connects nodes inside
//     one process and injects seeded faults (kill, partition, slow) for
//     the chaos harness; the HTTP implementation (httptransport.go)
//     speaks to the /internal/* endpoints internal/server mounts.
//
//   - Node (node.go, replicate.go, failover.go): ties the pieces
//     together. Forwarding retries with per-attempt timeouts and capped
//     exponential backoff with jitter, hedging to the next replica when
//     an owner is unreachable. Replication streams byte payloads in
//     resumable chunks and verifies the content hash on receive. When a
//     peer is declared dead, the highest-priority live replica adopts
//     the dead node's handed-off job records: the serving layer re-runs
//     a submitted record as its own job kind, or serves a done record's
//     summary or outcome. The layer itself never parses a job: a forward
//     carries an opaque spec and kind, a replicated record an opaque
//     payload, both placed by their dataset hash.
//
// Everything above the Transport interface is deterministic given a
// seeded transport and an injected clock, which is what makes the chaos
// tests (chaos_test.go) reproducible: the same seed produces the same
// kill/partition/slow schedule, the same suspicion timeline, and the
// same failover decisions.
package cluster
