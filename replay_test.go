package grouphash_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"grouphash"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
)

// writeLog appends recs to a fresh log based at base, LSNs from 1, and
// makes them durable.
func writeLog(tb testing.TB, base string, recs []oplog.Record) {
	tb.Helper()
	lg, err := oplog.Open(base, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for len(recs) > 0 {
		n := min(len(recs), 4096)
		lg.AppendBatch(recs[:n])
		recs = recs[n:]
	}
	if err := lg.Sync(lg.LastLSN()); err != nil {
		tb.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		tb.Fatal(err)
	}
}

// A sequential store replays inserts through the same expanding path
// ApplyBatch takes live: a log of more fresh inserts than the initial
// capacity holds must replay, not fail with a full table.
func TestReplayOplogSequentialExpands(t *testing.T) {
	const n = 1000
	live, err := grouphash.New(grouphash.Options{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]grouphash.BatchOp, n)
	recs := make([]oplog.Record, n)
	for i := range ops {
		k := layout.Key{Lo: uint64(i) + 1}
		ops[i] = grouphash.BatchOp{Kind: grouphash.BatchInsert, Key: k, Value: uint64(i)}
		recs[i] = oplog.Record{Op: oplog.OpInsert, Key: k, Value: uint64(i)}
	}
	out := make([]grouphash.BatchResult, n)
	live.ApplyBatch(ops, out, nil, nil)
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("live insert %d: %v", i, out[i].Err)
		}
	}
	base := filepath.Join(t.TempDir(), "oplog")
	writeLog(t, base, recs)

	re, err := grouphash.New(grouphash.Options{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	applied, next, err := re.ReplayOplog(base, 0)
	if err != nil {
		t.Fatalf("ReplayOplog: %v", err)
	}
	if applied != n || next != n+1 {
		t.Fatalf("ReplayOplog = (%d, %d), want (%d, %d)", applied, next, n, n+1)
	}
	if re.Len() != live.Len() {
		t.Fatalf("replayed Len %d, live %d", re.Len(), live.Len())
	}
	for i := range ops {
		if v, ok := re.Get(ops[i].Key); !ok || v != ops[i].Value {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", i, v, ok, ops[i].Value)
		}
	}
}

// A record that cannot apply stops a sequential store's replay with an
// error naming its LSN (the engine conformance suite checks the
// concurrent flagship). A zero key under the 8-byte layout is the
// failing record: the server never logs one, so only a damaged log
// carries it.
func TestReplayOplogErrorNamesLSN(t *testing.T) {
	const bad = 2500
	recs := make([]oplog.Record, 3000)
	for i := range recs {
		recs[i] = oplog.Record{Op: oplog.OpPut, Key: layout.Key{Lo: uint64(i) + 1}, Value: uint64(i)}
	}
	recs[bad-1].Key = layout.Key{}
	base := filepath.Join(t.TempDir(), "oplog")
	writeLog(t, base, recs)
	s, err := grouphash.New(grouphash.Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	applied, _, err := s.ReplayOplog(base, 0)
	if !errors.Is(err, hashtab.ErrInvalidKey) || !strings.Contains(err.Error(), "record 2500:") {
		t.Fatalf("ReplayOplog error %v, want ErrInvalidKey naming record 2500", err)
	}
	if applied != bad-1 {
		t.Fatalf("applied %d, want %d", applied, bad-1)
	}
}

// Replay-benchmark log shape, after perfbench's write-grow workload: an
// image of replayPreload items at capacity 2^17 (just under the first
// expansion threshold), then replayRecords records, half inserts of
// fresh keys and half overwrites of preloaded ones, so replay doubles
// the table twice.
const (
	replayPreload = 22 << 13
	replayRecords = 600_000
)

func replayKey(i uint64) layout.Key { return layout.Key{Lo: i*0x9e3779b97f4a7c15 | 1} }

// buildReplayLog writes the benchmark's image and log under dir.
func buildReplayLog(b *testing.B, dir string) (img, base string) {
	b.Helper()
	s, err := grouphash.New(grouphash.Options{Capacity: 1 << 17, Concurrent: true})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]grouphash.Item, replayPreload)
	for i := range items {
		items[i] = grouphash.Item{Key: replayKey(uint64(i)), Value: uint64(i)}
	}
	if _, err := s.InsertBatch(items); err != nil {
		b.Fatal(err)
	}
	img = filepath.Join(dir, "store.pmfs")
	if err := s.Snapshot(img); err != nil {
		b.Fatal(err)
	}
	recs := make([]oplog.Record, replayRecords)
	fresh := uint64(replayPreload)
	x := uint64(1)
	for i := range recs {
		x = x*6364136223846793005 + 1442695040888963407
		if i%2 == 0 {
			recs[i] = oplog.Record{Op: oplog.OpInsert, Key: replayKey(fresh), Value: fresh}
			fresh++
		} else {
			recs[i] = oplog.Record{Op: oplog.OpPut, Key: replayKey((x >> 33) % replayPreload), Value: x}
		}
	}
	base = filepath.Join(dir, "oplog")
	writeLog(b, base, recs)
	return img, base
}

// BenchmarkStoreReplayOplog times Store.ReplayOplog alone (the image
// load is untimed) over the write-grow-shaped log, reporting the cost
// per replayed record.
func BenchmarkStoreReplayOplog(b *testing.B) {
	img, base := buildReplayLog(b, b.TempDir())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, mark, err := grouphash.LoadSnapshotMark(img, true)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applied, _, err := s.ReplayOplog(base, mark)
		if err != nil {
			b.Fatal(err)
		}
		if applied != replayRecords {
			b.Fatalf("applied %d records, want %d", applied, replayRecords)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/replayRecords, "ns/record")
}
