package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"pacman"
	"pacman/internal/tuple"
)

// tableDigest fingerprints one table's visible rows.
type tableDigest struct {
	table string
	rows  int
	sum   [sha256.Size]byte
}

// stateDigest fingerprints a database's visible state, table by table in
// blueprint order.
type stateDigest []tableDigest

// digest hashes the latest row image of every table in bp, rows in key
// order. Rows without a visible version (deleted, or allocated by an
// insert that never committed) are skipped: physical placement may differ
// after recovery, the visible state may not.
func digest(db *pacman.DB, bp pacman.Blueprint) stateDigest {
	var buf []byte
	out := make(stateDigest, 0, len(bp.Tables))
	for _, s := range bp.Tables {
		h := sha256.New()
		td := tableDigest{table: s.Table()}
		db.Table(td.table).ScanIndex(0, math.MaxUint64, func(r *pacman.Row) bool {
			data := r.LatestData()
			if data == nil {
				return true
			}
			buf = binary.LittleEndian.AppendUint64(buf[:0], r.Key)
			h.Write(tuple.AppendTuple(buf, data))
			td.rows++
			return true
		})
		h.Sum(td.sum[:0])
		out = append(out, td)
	}
	return out
}

// rows is the number of visible rows the digest covers.
func (d stateDigest) rows() int {
	n := 0
	for _, t := range d {
		n += t.rows
	}
	return n
}

// checkState is the correctness gate: the recovered instance's digest must
// equal the digest taken before the crash, table by table.
func checkState(db *pacman.DB, bp pacman.Blueprint, want stateDigest) error {
	got := digest(db, bp)
	var differ []string
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			differ = append(differ, want[i].table)
		}
	}
	if len(differ) > 0 || len(got) != len(want) {
		return fmt.Errorf("recovered state differs from the pre-crash state in %s (%d rows recovered, %d before the crash)",
			strings.Join(differ, ", "), got.rows(), want.rows())
	}
	return nil
}
