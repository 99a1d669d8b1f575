package main

import (
	"fmt"
	"strings"

	"grouphash/internal/engine"
)

// book is one connection's ledger of what the server must hold for the
// keys that connection owns (index ≡ connection mod conns): the last
// acked value of each, 0 for a key never acked.
type book struct {
	conn uint64
	vals []uint64 // indexed by record index / conns
	// unknown holds keys whose last write went unanswered: it may or
	// may not have been applied, so the audit cannot judge them.
	unknown map[uint64]struct{}
}

func newBook(conn int) *book {
	return &book{conn: uint64(conn), unknown: map[uint64]struct{}{}}
}

func (b *book) set(idx, v uint64) {
	j := idx / conns
	for uint64(len(b.vals)) <= j {
		b.vals = append(b.vals, 0)
	}
	b.vals[j] = v
	delete(b.unknown, idx)
}

func (b *book) forget(idx uint64) { b.unknown[idx] = struct{}{} }

// auditProbes is how many never-written keys of each kind the audit
// asks for: negative-lookup keys, and fresh keys just past the last
// one each connection inserted.
const auditProbes = 4096

// audit checks the recovered engine against the books: every acked
// write reads back with its last acked value, no key that was never
// acked is present, Len matches the keys written, and the structural
// audit comes back clean. It returns nil or a description of the
// violations.
func audit(eng engine.Engine, seed uint64, books []*book) error {
	var bad []string
	note := func(format string, args ...any) {
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	var present, unknown uint64
	var violations int
	for _, b := range books {
		unknown += uint64(len(b.unknown))
		for j, want := range b.vals {
			idx := uint64(j)*conns + b.conn
			if _, skip := b.unknown[idx]; skip {
				continue
			}
			got, ok := eng.Get(keyOf(seed, idx))
			switch {
			case want == 0 && ok:
				violations++
				note("record %d was never acked but reads back %#x", idx, got)
			case want == 0:
			case !ok:
				violations++
				note("record %d acked %#x but is missing", idx, want)
			case got != want:
				violations++
				note("record %d acked %#x but reads back %#x", idx, want, got)
			default:
				present++
			}
		}
		// Fresh keys this connection never sent.
		next := uint64(len(b.vals))*conns + b.conn
		for i := uint64(0); i < auditProbes; i++ {
			idx := next + i*conns
			if _, skip := b.unknown[idx]; skip {
				continue
			}
			if v, ok := eng.Get(keyOf(seed, idx)); ok {
				violations++
				note("record %d was never written but reads back %#x", idx, v)
			}
		}
	}
	for i := uint64(0); i < auditProbes; i++ {
		idx := negBase + mix(seed+i)%negBase
		if v, ok := eng.Get(keyOf(seed, idx)); ok {
			violations++
			note("never-inserted key %d reads back %#x", idx, v)
		}
	}
	if n := eng.Len(); n < present || n > present+unknown {
		violations++
		note("Len is %d, want %d acked keys (plus up to %d of unknown outcome)", n, present, unknown)
	}
	for _, v := range eng.CheckConsistency() {
		violations++
		note("consistency: %s", v)
	}
	if violations == 0 {
		return nil
	}
	return fmt.Errorf("durability audit: %d violations:\n  %s", violations, strings.Join(bad, "\n  "))
}
