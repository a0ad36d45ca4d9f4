package core

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/fpm"
)

// Exploration persistence: a mined Result can be saved and later
// reattached to the same transaction database, skipping the mining pass.
// Useful for interactive workflows over large explorations (german at
// s = 0.01 mines for tens of seconds but loads in a fraction of that)
// and for sharing exploration snapshots between the CLI, the server and
// notebooks.
//
// The snapshot embeds a fingerprint of the database (row count, item
// space, outcome classes); Load refuses to attach a snapshot to a
// different database, which would silently corrupt every statistic.

type resultSnapshot struct {
	Fingerprint uint64
	MinSup      float64
	MinCount    int64
	Miner       string
	Items       [][]fpm.Item
	Tallies     []fpm.Tally
}

// Save writes the exploration to w in gob encoding.
func (r *Result) Save(w io.Writer) error {
	snap := resultSnapshot{
		Fingerprint: fingerprintDB(r.DB),
		MinSup:      r.MinSup,
		MinCount:    r.MinCount,
		Miner:       r.Miner,
		Items:       make([][]fpm.Item, len(r.Patterns)),
		Tallies:     make([]fpm.Tally, len(r.Patterns)),
	}
	for i, p := range r.Patterns {
		snap.Items[i] = p.Items
		snap.Tallies[i] = p.Tally
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	return nil
}

// LoadResult reads a snapshot and attaches it to db, which must be the
// database the snapshot was mined from.
func LoadResult(rd io.Reader, db *fpm.TxDB) (*Result, error) {
	var snap resultSnapshot
	if err := gob.NewDecoder(rd).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	if got := fingerprintDB(db); got != snap.Fingerprint {
		return nil, fmt.Errorf("core: snapshot fingerprint %x does not match database %x",
			snap.Fingerprint, got)
	}
	if len(snap.Items) != len(snap.Tallies) {
		return nil, fmt.Errorf("core: corrupt snapshot (%d itemsets, %d tallies)",
			len(snap.Items), len(snap.Tallies))
	}
	patterns := make([]Pattern, len(snap.Items))
	for i := range snap.Items {
		patterns[i] = Pattern{Items: fpm.Itemset(snap.Items[i]), Tally: snap.Tallies[i]}
	}
	return newResult(db, snap.MinSup, snap.MinCount, snap.Miner, patterns), nil
}

// fingerprintDB hashes the database's schema and outcome assignment.
func fingerprintDB(db *fpm.TxDB) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|", db.NumRows(), db.K, db.Catalog.NumItems())
	for i := 0; i < db.Catalog.NumItems(); i++ {
		io.WriteString(h, db.Catalog.Name(fpm.Item(i)))
		h.Write([]byte{0})
	}
	h.Write(db.Classes)
	// Row content: hash the value codes.
	for _, row := range db.Data.Rows {
		for _, v := range row {
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
	}
	return h.Sum64()
}
