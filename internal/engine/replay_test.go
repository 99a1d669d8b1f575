package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"grouphash/internal/core"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
)

// replaySpecs is conformanceSpecs sized for the replay tests: the
// flagship small enough, with groups of 8, that the log's fresh inserts
// cross at least one online expansion while its 512 groups still make
// 8 stripes; the fixed-size schemes large enough to hold every insert.
func replaySpecs() []Spec {
	specs := conformanceSpecs()
	for i := range specs {
		if specs[i].Name == "grouphash" {
			specs[i].Capacity, specs[i].GroupSize = 1<<12, 8
		} else {
			specs[i].Capacity = 1 << 14
		}
	}
	return specs
}

// Key families of the replay workload. Put keys take upserts with
// changing values and deletes, so their final values depend on per-key
// order. Insert keys take Algorithm-1 inserts, some of them duplicates,
// and deletes; every copy of an insert key carries the same value, so a
// lookup's answer does not depend on which copy it finds. Absent keys
// are only ever deleted.
func putKey(i int) layout.Key    { return key(uint64(i) + 1) }
func insertKey(i int) layout.Key { return key(uint64(i) + 1<<20) }
func absentKey(i int) layout.Key { return key(uint64(i) + 1<<21) }
func insertValue(k layout.Key) uint64 {
	return k.Lo ^ 0x5555
}

const (
	replayPutKeys    = 2000
	replayAbsentKeys = 500
	replayOps        = 24000
)

// liveLogged applies a seeded mix of puts, fresh and duplicate inserts,
// and present and absent deletes to e in batches of 1–300 ops, logging
// what each batch applied from inside the commit hook exactly as the
// server does. It returns how many fresh insert keys it used.
func liveLogged(t *testing.T, e Engine, lg *oplog.Log, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sc core.BatchScratch
	var recs []oplog.Record
	fresh := 0
	for done := 0; done < replayOps; {
		n := min(1+rng.Intn(300), replayOps-done)
		ops := make([]core.BatchOp, n)
		for i := range ops {
			switch r := rng.Intn(100); {
			case r < 30:
				ops[i] = core.BatchOp{Kind: core.BatchPut, Key: putKey(rng.Intn(replayPutKeys)), Value: rng.Uint64()}
			case r < 70:
				k := insertKey(fresh)
				fresh++
				ops[i] = core.BatchOp{Kind: core.BatchInsert, Key: k, Value: insertValue(k)}
			case r < 78 && fresh > 0:
				k := insertKey(rng.Intn(fresh))
				ops[i] = core.BatchOp{Kind: core.BatchInsert, Key: k, Value: insertValue(k)}
			case r < 86:
				ops[i] = core.BatchOp{Kind: core.BatchDelete, Key: putKey(rng.Intn(replayPutKeys))}
			case r < 94 && fresh > 0:
				ops[i] = core.BatchOp{Kind: core.BatchDelete, Key: insertKey(rng.Intn(fresh))}
			default:
				ops[i] = core.BatchOp{Kind: core.BatchDelete, Key: absentKey(rng.Intn(replayAbsentKeys))}
			}
		}
		out := make([]core.BatchResult, n)
		e.ApplyBatch(ops, out, &sc, func(applied []int) {
			recs = recs[:0]
			for _, i := range applied {
				recs = append(recs, oplog.Record{Op: logOp(ops[i].Kind), Key: ops[i].Key, Value: ops[i].Value})
			}
			lg.AppendBatch(recs)
		})
		for i := range out {
			if out[i].Err != nil {
				t.Fatalf("live op %d (%+v): %v", done+i, ops[i], out[i].Err)
			}
		}
		done += n
	}
	if err := lg.Sync(lg.LastLSN()); err != nil {
		t.Fatal(err)
	}
	return fresh
}

func logOp(k core.BatchKind) oplog.Op {
	switch k {
	case core.BatchPut:
		return oplog.OpPut
	case core.BatchInsert:
		return oplog.OpInsert
	}
	return oplog.OpDelete
}

// contents lists an engine's items when it can enumerate them (the
// flagship), sorted, so two stores compare as multisets.
func contents(e Engine) ([]string, bool) {
	r, ok := e.(interface {
		Range(fn func(k layout.Key, v uint64) bool)
	})
	if !ok {
		return nil, false
	}
	var items []string
	r.Range(func(k layout.Key, v uint64) bool {
		items = append(items, fmt.Sprintf("%x/%x=%x", k.Hi, k.Lo, v))
		return true
	})
	slices.Sort(items)
	return items, true
}

// TestConformanceReplayEquivalence: replaying the oplog a live engine
// wrote onto a fresh engine of the same spec reproduces the live
// engine's contents and Len exactly. The log interleaves puts, fresh
// and duplicate inserts, and present and absent deletes over thousands
// of keys (so every flagship stripe), spans two replay chunks, and on
// the flagship crosses an online expansion both live and in replay.
func TestConformanceReplayEquivalence(t *testing.T) {
	for _, spec := range replaySpecs() {
		t.Run(specLabel(spec), func(t *testing.T) {
			live, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			base := filepath.Join(t.TempDir(), "oplog")
			lg, err := oplog.Open(base, 1)
			if err != nil {
				t.Fatal(err)
			}
			fresh := liveLogged(t, live, lg, 7)
			logged := lg.LastLSN()
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			applied, next, err := re.ReplayOplog(base, 0)
			if err != nil {
				t.Fatalf("ReplayOplog: %v", err)
			}
			if uint64(applied) != logged || next != logged+1 {
				t.Fatalf("ReplayOplog = (%d, %d), want (%d, %d)", applied, next, logged, logged+1)
			}
			if logged <= 16<<10 {
				t.Fatalf("log has %d records, want more than one replay chunk", logged)
			}
			if spec.Name == "grouphash" && (live.Expansions() == 0 || re.Expansions() == 0) {
				t.Fatalf("expansions: live %d, replay %d; want both to cross one", live.Expansions(), re.Expansions())
			}
			if re.Len() != live.Len() {
				t.Fatalf("replayed Len %d, live %d", re.Len(), live.Len())
			}
			check := func(k layout.Key) {
				lv, lok := live.Get(k)
				rv, rok := re.Get(k)
				if lv != rv || lok != rok {
					t.Fatalf("key %+v: replayed (%d, %v), live (%d, %v)", k, rv, rok, lv, lok)
				}
			}
			for i := 0; i < replayPutKeys; i++ {
				check(putKey(i))
			}
			for i := 0; i < fresh; i++ {
				check(insertKey(i))
			}
			for i := 0; i < replayAbsentKeys; i++ {
				check(absentKey(i))
			}
			if want, ok := contents(live); ok {
				got, _ := contents(re)
				if !slices.Equal(got, want) {
					t.Fatalf("replayed contents differ from live: %d vs %d items", len(got), len(want))
				}
			}
			requireClean(t, re)
		})
	}
}

// TestConformanceReplayErrorNamesLSN: a record that cannot apply (a
// zero key, which the server never logs) fails the replay with an
// error naming its LSN, on every engine.
func TestConformanceReplayErrorNamesLSN(t *testing.T) {
	base := filepath.Join(t.TempDir(), "oplog")
	lg, err := oplog.Open(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		k := putKey(i)
		if i == 217 {
			k = layout.Key{}
		}
		lg.Append(oplog.OpPut, k, uint64(i))
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	for _, spec := range conformanceSpecs() {
		t.Run(specLabel(spec), func(t *testing.T) {
			e, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			applied, _, err := e.ReplayOplog(base, 0)
			if !errors.Is(err, hashtab.ErrInvalidKey) || !strings.Contains(err.Error(), "record 217:") {
				t.Fatalf("ReplayOplog error %v, want ErrInvalidKey naming record 217", err)
			}
			if applied != 216 {
				t.Fatalf("applied %d, want 216", applied)
			}
		})
	}
}
