// Package registry is a content-addressed store of parsed datasets: the
// key of a dataset is the SHA-256 of its canonicalized CSV bytes, so the
// same upload — regardless of line endings or a missing trailing newline
// — always resolves to the same entry and is parsed exactly once. The
// store is one byte-budgeted LRU (internal/lru) under one lock, and
// keeps hit/miss/eviction counters for /statsz.
//
// The registry is the "mine once, serve many" seam of the service: jobs
// reference datasets by hash, repeated uploads of the same CSV are free,
// and the result cache in package jobs keys on the same hash.
//
// With a disk-spill tier attached (AttachSpill), eviction is no longer
// data loss: the victim's canonicalized CSV bytes are written
// crash-safely to disk *before* the in-memory entry is dropped, and a
// Get that misses memory falls through to a checksum-verified disk load
// that re-parses and promotes the dataset back into memory. The
// observable ladder is memory hit → disk hit → miss; a spill file whose
// contents no longer hash to its name is quarantined, never served.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/lru"
)

// Hash is the content address of a dataset: the lower-case hex SHA-256
// of its canonicalized CSV bytes.
type Hash string

// HashBytes computes the content address of raw CSV bytes: the hash
// of their canonical form, computed in place when they are already
// canonical.
func HashBytes(csv []byte) Hash { return hashCanonical(dataset.Canonicalize(csv)) }

// hashCanonical is the content address of bytes already in canonical
// form.
func hashCanonical(canon []byte) Hash {
	sum := sha256.Sum256(canon)
	return Hash(hex.EncodeToString(sum[:]))
}

// Entry is one registered dataset. Entries are immutable once created:
// eviction only drops the registry's reference, so an Entry held by a
// running job stays valid after eviction.
type Entry struct {
	Hash  Hash
	Data  *dataset.Dataset
	Bytes int64 // estimated resident size, charged against the budget

	// raw holds the canonicalized CSV bytes when a spill tier is
	// attached — the payload a byte-budget eviction writes to disk. It
	// may alias the uploaded buffer (canonical uploads are not copied),
	// which no caller writes to after registering it. Registries
	// without a spill tier leave it nil (no memory overhead).
	raw []byte
}

// Stats is a point-in-time snapshot of the registry counters, with the
// disk-tier counters in Spill when one is attached.
type Stats struct {
	Entries   int         `json:"entries"`
	Bytes     int64       `json:"bytes"`
	Budget    int64       `json:"budget_bytes"`
	Hits      int64       `json:"hits"`
	Misses    int64       `json:"misses"`
	Evictions int64       `json:"evictions"`
	Spill     *SpillStats `json:"spill,omitempty"`
}

// Registry is a byte-budgeted, content-addressed LRU store of parsed
// datasets, optionally backed by a disk-spill tier. All methods are safe
// for concurrent use.
type Registry struct {
	// mem is the memory tier: entries charged their Entry.Bytes against
	// the byte budget. Its hit, miss and eviction counters are the
	// registry's.
	mem *lru.Cache[Hash, *Entry]

	// spill, when non-nil, is the disk tier beneath the memory LRU;
	// spillOpts are the CSV options disk fall-through re-parses with
	// (they must match what Register was called with, or the promoted
	// dataset would differ from the original). Set once by AttachSpill
	// before the registry serves traffic.
	spill     *Spill
	spillOpts dataset.CSVOptions

	// locks serializes the spill tier's multi-step transitions per
	// content address (see keylock.go): spill-then-evict, disk
	// promotion, and Remove each hold the hash's lock end to end, so no
	// two of them can interleave on one dataset. Unused without a spill
	// tier.
	locks keyLocks
}

// New returns a registry bounded by budgetBytes (<= 0 for unlimited).
func New(budgetBytes int64) *Registry {
	return &Registry{mem: lru.New[Hash, *Entry](budgetBytes)}
}

// AttachSpill wires the disk tier beneath the memory LRU: evictions
// spill the canonicalized CSV to sp before dropping the in-memory
// entry, and Get misses fall through to a verified disk load that is
// re-parsed with opts and promoted back into memory. Attach before the
// registry serves traffic — entries registered earlier carry no raw
// bytes and evict without spilling (they predate the tier, so nothing
// is lost that was ever on it).
func (r *Registry) AttachSpill(sp *Spill, opts dataset.CSVOptions) {
	r.spill = sp
	r.spillOpts = opts
}

// Spill returns the attached disk tier, nil if none.
func (r *Registry) Spill() *Spill { return r.spill }

// Register stores the dataset decoded from csv under its content
// address. The upload is canonicalized once (in place when it already
// is canonical), hashed, and — on a miss — those same canonical bytes
// are decoded, so the dataset is always the one its address names.
// When the hash is already present the existing entry is returned with
// existed == true and nothing is decoded — that dedup is the cache hit
// the counters record. A parse failure stores nothing.
func (r *Registry) Register(csv []byte, opts dataset.CSVOptions) (*Entry, bool, error) {
	canon := dataset.Canonicalize(csv)
	h := hashCanonical(canon)
	if e, ok := r.mem.Get(h); ok {
		return e, true, nil
	}

	// Decode outside the lock: decoding dominates registration cost and
	// must not serialize unrelated requests. A concurrent duplicate upload
	// may decode twice; the insert below hands the later one the first
	// entry stored and discards its copy.
	data, err := dataset.Decode(canon, opts)
	if err != nil {
		return nil, false, fmt.Errorf("registry: parsing CSV: %w", err)
	}
	e := r.newEntry(h, data, canon)
	e, existed := r.mem.Add(h, e, e.Bytes)
	if !existed {
		r.enforceBudget(h)
	}
	return e, existed, nil
}

// newEntry builds an Entry, retaining (and charging for) the canonical
// bytes only when a spill tier needs them at eviction time.
func (r *Registry) newEntry(h Hash, data *dataset.Dataset, canon []byte) *Entry {
	e := &Entry{Hash: h, Data: data, Bytes: datasetBytes(data)}
	if r.spill != nil {
		e.raw = canon
		e.Bytes += int64(len(canon))
	}
	return e
}

// Get looks up a dataset by hash, refreshing its LRU recency. With a
// spill tier attached, a memory miss falls through to a verified disk
// load: the spill file is re-hashed (a mismatch quarantines it and
// reports a miss — corruption is never served), re-parsed, and promoted
// back into the memory tier. Exactly one of hits/misses moves per call:
// the memory probe counts it, and a disk hit is a memory miss, keeping
// the hits+misses == lookups invariant intact across tiers.
func (r *Registry) Get(h Hash) (*Entry, bool) {
	if e, ok := r.mem.Get(h); ok {
		return e, true
	}
	return r.promoteFromSpill(h)
}

// promoteFromSpill serves a memory miss from the disk tier: load and
// verify the spilled bytes, re-parse, insert into the memory tier, and
// re-enforce the memory budget — which may in turn spill something
// else. Two concurrent promotions of one hash both read the file; the
// insert hands the second the first one's entry.
//
// The whole load→parse→insert sequence runs under the hash's key lock,
// which excludes Remove for its duration: a DELETE either completes
// before the promotion starts (the spill file is gone, the lookup is a
// plain miss) or blocks until the promotion finishes and then removes
// the freshly promoted entry — it can never land in the middle and have
// the insert resurrect a dataset whose deletion was already
// acknowledged. The lock is released before budget enforcement, which
// may acquire another hash's lock (never two at once — see keylock.go).
func (r *Registry) promoteFromSpill(h Hash) (*Entry, bool) {
	if r.spill == nil {
		return nil, false
	}
	r.locks.lock(h)
	raw, err := r.spill.load(h)
	if err != nil {
		r.locks.unlock(h)
		return nil, false // missing, unreadable, or quarantined: a plain miss
	}
	data, err := dataset.Decode(raw, r.spillOpts)
	if err != nil {
		// The bytes hash correctly, so they are exactly what was once
		// parsed successfully; a parse failure here means the options
		// changed between runs. Treat as a miss rather than serve a
		// dataset parsed differently than the original.
		r.spill.loadErrors.Add(1)
		r.locks.unlock(h)
		return nil, false
	}
	e := r.newEntry(h, data, raw)
	e, existed := r.mem.Add(h, e, e.Bytes)
	r.locks.unlock(h)
	if !existed {
		r.enforceBudget(h)
	}
	return e, true
}

// Remove drops the entry for h across every tier — memory, spill file,
// and any quarantined copy — reporting whether any of them held it.
// Deletion must be total: after Remove, no tier may re-materialize the
// dataset, which is why (with a spill tier attached) Remove holds the
// hash's key lock across both tiers — an in-flight disk promotion or
// spill-on-evict of the same hash finishes first and its result is then
// deleted here, instead of re-materializing the dataset afterwards.
// Explicit removal is a delete, not an eviction: it does not move the
// hit/miss/eviction counters.
func (r *Registry) Remove(h Hash) bool {
	if r.spill != nil {
		r.locks.lock(h)
		defer r.locks.unlock(h)
	}
	ok := r.mem.Remove(h)
	if r.spill != nil && r.spill.remove(h) {
		ok = true
	}
	return ok
}

// enforceBudget evicts least-recently-used entries until residency fits
// the budget, sparing justAdded (the entry whose insert triggered
// enforcement) so a single dataset larger than the whole budget is still
// usable — it evicts everything else instead.
//
// With a spill tier the protocol is spill-then-evict, one victim at a
// time: peek the victim, take its key lock, check it is still next in
// line, write its spill file outside the LRU's lock, then evict only if
// it is still next in line (compare-and-evict on its position). While
// the key lock is held the victim can stop being next only by being
// touched — a Get, or a duplicate Register, moves it to the front —
// because Remove, disk promotion and every rival evictor of the same
// hash wait on that lock. Eviction never precedes a durable copy, so a
// crash or write failure at any point leaves the dataset resident in at
// least one tier. A permanent spill failure aborts enforcement
// entirely: the registry stays over budget and keeps serving from
// memory — counted, not hidden (write_errors in /statsz) — because
// dropping the only copy to honor a byte budget would turn a disk error
// into data loss.
func (r *Registry) enforceBudget(justAdded Hash) {
	if r.spill == nil {
		r.mem.Trim(justAdded)
		return
	}
	for {
		h, e, ok := r.mem.Oldest(justAdded)
		if !ok || !r.spillThenEvict(h, e, justAdded) {
			return
		}
	}
}

// spillThenEvict runs one spill-then-evict cycle on the peeked victim
// under its key lock. It reports false when enforcement must stop
// because the spill write failed; a victim that was touched meanwhile
// is kept (its spill file stays — it is correct by content address and
// pre-pays a future eviction) and enforcement re-peeks.
func (r *Registry) spillThenEvict(h Hash, e *Entry, spare Hash) bool {
	r.locks.lock(h)
	defer r.locks.unlock(h)
	if next, _, ok := r.mem.Oldest(spare); !ok || next != h {
		return true // touched while we waited for the lock: re-peek
	}
	// Entries registered before AttachSpill carry no raw bytes and
	// evict without spilling — they predate the disk tier.
	if e.raw != nil {
		if err := r.spill.store(h, e.raw); err != nil {
			return false
		}
	}
	r.mem.EvictIfOldest(h, spare)
	return true
}

// Stats returns a snapshot of the counters.
func (r *Registry) Stats() Stats {
	m := r.mem.Stats()
	s := Stats{
		Entries:   m.Entries,
		Bytes:     m.Cost,
		Budget:    m.Budget,
		Hits:      m.Hits,
		Misses:    m.Misses,
		Evictions: m.Evictions,
	}
	if r.spill != nil {
		sp := r.spill.Stats()
		s.Spill = &sp
	}
	return s
}

// datasetBytes estimates the resident size of a parsed dataset: per row,
// its slice header (rowHeaderBytes) and 4 bytes per value code, plus the
// schema strings with per-string overhead. An estimate is enough — the
// budget bounds order of magnitude, not pages.
func datasetBytes(d *dataset.Dataset) int64 {
	const strOverhead = 16
	var n int64
	for i := range d.Attrs {
		n += int64(len(d.Attrs[i].Name)) + strOverhead
		for _, v := range d.Attrs[i].Values {
			n += int64(len(v)) + strOverhead
		}
	}
	n += int64(d.NumRows()) * (rowHeaderBytes + int64(d.NumAttrs())*4)
	return n
}

// rowHeaderBytes is the size of one row's []int32 header in a Dataset:
// a pointer, a length and a capacity.
const rowHeaderBytes = 24
