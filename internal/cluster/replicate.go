package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// JobRecord is the cluster envelope of one replicated job record: just
// enough for the cluster layer to decide who adopts it (the dataset
// names the replica set) without parsing the serving layer's payload.
type JobRecord struct {
	ID      string          `json:"id"`
	Dataset string          `json:"dataset"`
	Payload json.RawMessage `json:"payload"`
}

// replicaBuf is one in-flight payload being assembled from chunks.
type replicaBuf struct {
	data  []byte
	total int64
}

func asmKey(origin NodeID, kind, key string) string {
	return string(origin) + "|" + kind + "|" + key
}

// HandleReplicate is the receiving end of the replication stream: append
// the chunk if its offset matches the assembly high-water mark, answer
// with the mark otherwise (the resume contract), and on the final chunk
// verify the payload before handing it over — spill payloads must hash
// back to their key, job records must parse as a JobRecord envelope.
// Verified spill payloads go to Local.StoreReplica; verified job
// records additionally enter the handoff table for failover.
func (n *Node) HandleReplicate(chunk ReplicaChunk) (ReplicaAck, error) {
	n.chunksIn.Add(1)
	if chunk.Kind != ReplicaSpill && chunk.Kind != ReplicaJob {
		n.rejects.Add(1)
		return ReplicaAck{}, fmt.Errorf("%w: unknown replica kind %q", ErrPeerRejected, chunk.Kind)
	}
	if chunk.Total <= 0 || int64(len(chunk.Data)) > chunk.Total {
		n.rejects.Add(1)
		return ReplicaAck{}, fmt.Errorf("%w: malformed replica chunk", ErrPeerRejected)
	}
	k := asmKey(chunk.Origin, chunk.Kind, chunk.Key)

	n.asmMu.Lock()
	buf := n.assembly[k]
	if buf == nil {
		buf = &replicaBuf{total: chunk.Total}
		n.assembly[k] = buf
	}
	if buf.total != chunk.Total {
		// The sender restarted with different content; start over.
		buf.data = buf.data[:0]
		buf.total = chunk.Total
	}
	have := int64(len(buf.data))
	if chunk.Offset != have {
		// Out-of-order or duplicate chunk: report the mark so the sender
		// resumes from where this side actually is.
		n.asmMu.Unlock()
		n.resumes.Add(1)
		return ReplicaAck{Have: have, Resume: true}, nil
	}
	buf.data = append(buf.data, chunk.Data...)
	have = int64(len(buf.data))
	if have < buf.total {
		n.asmMu.Unlock()
		return ReplicaAck{Have: have}, nil
	}
	// Complete: detach the buffer before verification so a concurrent
	// re-send starts a fresh assembly.
	data := buf.data
	delete(n.assembly, k)
	n.asmMu.Unlock()

	if have > buf.total {
		n.rejects.Add(1)
		return ReplicaAck{}, fmt.Errorf("%w: replica payload overran its declared size", ErrPeerRejected)
	}
	switch chunk.Kind {
	case ReplicaSpill:
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != chunk.Key {
			n.rejects.Add(1)
			return ReplicaAck{}, fmt.Errorf("%w: spill replica %s failed checksum verification", ErrPeerRejected, chunk.Key)
		}
	case ReplicaJob:
		var rec JobRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID == "" || rec.Dataset == "" {
			n.rejects.Add(1)
			return ReplicaAck{}, fmt.Errorf("%w: malformed job record replica", ErrPeerRejected)
		}
		n.hoMu.Lock()
		byID := n.handoff[chunk.Origin]
		if byID == nil {
			byID = make(map[string]JobRecord)
			n.handoff[chunk.Origin] = byID
		}
		if _, seen := byID[rec.ID]; !seen {
			n.handoffRecords.Add(1)
		}
		byID[rec.ID] = rec // later records (done) supersede earlier (submitted)
		n.hoMu.Unlock()
	}
	if err := n.opts.Local.StoreReplica(chunk.Origin, chunk.Kind, chunk.Key, data); err != nil {
		return ReplicaAck{}, fmt.Errorf("%w: %v", ErrPeerRejected, err)
	}
	n.payloadsIn.Add(1)
	return ReplicaAck{Have: have}, nil
}

// replicateTo streams one payload to a peer in ChunkSize slices,
// resuming from the receiver's high-water mark on offset mismatch and
// retrying transient transport failures with jittered backoff.
func (n *Node) replicateTo(ctx context.Context, to NodeID, kind, key string, data []byte) error {
	total := int64(len(data))
	var off int64
	attempt := 0
	for off < total {
		end := off + int64(n.opts.ChunkSize)
		if end > total {
			end = total
		}
		actx, cancel := context.WithTimeout(ctx, n.opts.AttemptTimeout)
		ack, err := n.opts.Transport.Replicate(actx, to, ReplicaChunk{
			Origin: n.opts.Self,
			Kind:   kind,
			Key:    key,
			Offset: off,
			Total:  total,
			Data:   data[off:end],
		})
		cancel()
		n.chunksOut.Add(1)
		switch {
		case err == nil && ack.Resume:
			// The receiver holds a different prefix; resume from its mark.
			off = ack.Have
			attempt = 0
		case err == nil:
			off = ack.Have
			attempt = 0
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			attempt++
			if attempt >= n.opts.MaxAttempts {
				return fmt.Errorf("cluster: replicating %s/%s to %s: %w", kind, key, to, err)
			}
			select {
			case <-n.clock.After(n.jittered(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// replicaPeers returns the owners of key other than self, in priority
// order.
func (n *Node) replicaPeers(key string) []NodeID {
	owners := n.Owners(key)
	out := owners[:0:0]
	for _, id := range owners {
		if id != n.opts.Self {
			out = append(out, id)
		}
	}
	return out
}

// ReplicateSpill pushes a dataset's canonicalized bytes to the other
// owners of its content hash. Failures are counted, not propagated —
// replication is an availability optimization layered on a node that is
// already durable locally; the anti-entropy pass of a later PR can
// re-send.
func (n *Node) ReplicateSpill(ctx context.Context, hash string, data []byte) {
	for _, to := range n.replicaPeers(hash) {
		if err := n.replicateTo(ctx, to, ReplicaSpill, hash, data); err != nil {
			n.replFailures.Add(1)
		}
	}
}

// ReplicateJobRecord pushes one job record to the other owners of its
// dataset, so a replica can adopt the job if this node dies. Called on
// submission accept and again when the job ends, whose record
// supersedes the first in the receivers' handoff tables.
func (n *Node) ReplicateJobRecord(ctx context.Context, rec JobRecord) {
	data, err := json.Marshal(rec)
	if err != nil {
		n.replFailures.Add(1)
		return
	}
	for _, to := range n.replicaPeers(rec.Dataset) {
		if err := n.replicateTo(ctx, to, ReplicaJob, rec.ID, data); err != nil {
			n.replFailures.Add(1)
		}
	}
}

// adoptFrom re-homes a dead peer's handed-off job records. For each
// record, the adopter is the highest-priority live owner of the
// record's dataset — exactly one live node elects itself, so a job is
// never adopted twice while suspicions agree. Records stay in the
// handoff table until adopted (the origin may resurrect; adoption is
// idempotent through Local.AdoptJob's dedup by job ID).
func (n *Node) adoptFrom(dead NodeID) {
	n.hoMu.Lock()
	byID := n.handoff[dead]
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	recs := make([]JobRecord, 0, len(ids))
	for _, id := range ids {
		recs = append(recs, byID[id])
	}
	n.hoMu.Unlock()

	// Deterministic adoption order.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].ID < recs[j-1].ID; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	for _, rec := range recs {
		if n.electedAdopter(rec.Dataset, dead) != n.opts.Self {
			continue
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			n.adoptFailures.Add(1)
			continue
		}
		if err := n.opts.Local.AdoptJob(dead, payload); err != nil {
			n.adoptFailures.Add(1)
			continue
		}
		n.adoptions.Add(1)
		if n.opts.Logf != nil {
			n.opts.Logf("cluster: adopted job %s (dataset %s) from dead peer %s", rec.ID, rec.Dataset, dead)
		}
	}
}

// electedAdopter returns the highest-priority live owner of key,
// treating dead as dead regardless of the tracker (the caller just
// declared it). Returns "" when no owner is live.
func (n *Node) electedAdopter(key string, dead NodeID) NodeID {
	for _, id := range n.Owners(key) {
		if id == dead {
			continue
		}
		if id == n.opts.Self || n.health.alive(id) {
			return id
		}
	}
	return ""
}
