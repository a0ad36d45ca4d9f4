package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
)

// replicaLog is a Local that keeps every payload HandleReplicate hands
// over, in order.
type replicaLog struct {
	*fakeLocal
	stored [][]byte
}

func (l *replicaLog) StoreReplica(_ NodeID, _, _ string, data []byte) error {
	l.stored = append(l.stored, append([]byte(nil), data...))
	return nil
}

// FuzzReplicateChunks streams one payload into HandleReplicate as a
// sender would, in chunks whose order, size, resume offset and declared
// total the fuzzer picks. Every chunk carries the payload's true bytes
// at its offset, so whatever the receiver accepts must be the payload's
// first Total bytes, in order. A spill payload is accepted only when it
// hashes to its key, a job payload only when it parses as an envelope
// with an ID and a dataset, any other kind never; every ack's Have is at
// most the chunk's Total; nothing panics.
//
// kind picks the payload kind (spill, job, unknown) and, for spills,
// whether the key is the payload's hash. plan is read two bytes per
// chunk: the first picks the offset (the last ack's Have, 0, or one the
// byte names) and the declared total (the payload's length, one less or
// one more); the second is the chunk size, 0–31 bytes.
func FuzzReplicateChunks(f *testing.F) {
	rec, err := json.Marshal(JobRecord{ID: "j1", Dataset: "d1", Payload: json.RawMessage(`{"k":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), []byte("a,b\n1,2\n3,4\n"), []byte{0, 5, 0, 5, 0, 5})
	f.Add(uint8(1), rec, []byte{0, 31, 0, 31, 0, 31})
	f.Add(uint8(0), []byte("abcdefgh"), []byte{0, 3, 1, 2, 0, 3, 22, 4, 0, 8})
	f.Add(uint8(4), []byte("abc"), []byte{0, 3})
	f.Add(uint8(0), []byte("abcd"), []byte{0x40, 2, 0, 2, 0, 2})
	f.Fuzz(func(t *testing.T, kind uint8, payload, plan []byte) {
		local := &replicaLog{fakeLocal: newFakeLocal()}
		n, err := NewNode(Options{Self: "n1", Peers: []NodeID{"n2"}, Transport: NewMemNetwork(1).Transport("n1"), Local: local})
		if err != nil {
			t.Fatal(err)
		}
		chunk := ReplicaChunk{Origin: "n2", Kind: []string{ReplicaSpill, ReplicaJob, "other"}[kind%3], Key: sha256Hex(payload)}
		if kind&4 != 0 {
			chunk.Key = "k"
		}
		size := int64(len(payload))
		var have int64
		for i := 0; i+1 < len(plan); i += 2 {
			b := plan[i]
			switch b & 3 {
			case 0:
				chunk.Offset = have
			case 1:
				chunk.Offset = 0
			default:
				chunk.Offset = int64(b>>2) % (size + 1)
			}
			chunk.Total = size + int64(b>>6&1) - int64(b>>7)
			chunk.Data = payload[chunk.Offset:min(chunk.Offset+int64(plan[i+1]%32), size)]
			stored := len(local.stored)
			ack, err := n.HandleReplicate(chunk)
			if err != nil {
				have = 0
			} else if have = ack.Have; have < 0 || have > chunk.Total {
				t.Fatalf("ack Have %d outside [0, %d] for chunk %+v", have, chunk.Total, chunk)
			}
			if len(local.stored) == stored {
				continue
			}
			got := local.stored[stored]
			if chunk.Total > size || !bytes.Equal(got, payload[:chunk.Total]) {
				t.Fatalf("accepted %q of total %d, not the payload's first bytes %q", got, chunk.Total, payload)
			}
			switch chunk.Kind {
			case ReplicaSpill:
				if sha256Hex(got) != chunk.Key {
					t.Fatalf("accepted a spill payload that does not hash to its key %q", chunk.Key)
				}
			case ReplicaJob:
				var env JobRecord
				if json.Unmarshal(got, &env) != nil || env.ID == "" || env.Dataset == "" {
					t.Fatalf("accepted job payload %q is not an envelope with an id and a dataset", got)
				}
			default:
				t.Fatalf("accepted a payload of unknown kind %q", chunk.Kind)
			}
		}
	})
}
