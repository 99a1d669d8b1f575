package oplog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"grouphash/internal/core"
	"grouphash/internal/layout"
)

func base(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "oplog")
}

// collect replays base after the given LSN into a slice.
func collect(t *testing.T, b string, after uint64) (recs []Record, next uint64) {
	t.Helper()
	next, _, err := Scan(b, after, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs, next
}

func TestAppendSyncScanRoundtrip(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := uint64(1); i <= 100; i++ {
		op := OpPut
		switch i % 3 {
		case 1:
			op = OpInsert
		case 2:
			op = OpDelete
		}
		last = l.Append(op, layout.Key{Lo: i, Hi: i * 7}, i*11)
		if last != i {
			t.Fatalf("Append %d assigned LSN %d", i, last)
		}
	}
	if l.DurableLSN() != 0 {
		t.Fatalf("durable %d before any Sync", l.DurableLSN())
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != last {
		t.Fatalf("durable %d after Sync(%d)", l.DurableLSN(), last)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != 100 || next != 101 {
		t.Fatalf("replayed %d records, next=%d", len(recs), next)
	}
	for i, r := range recs {
		want := uint64(i + 1)
		if r.LSN != want || r.Key.Lo != want || r.Key.Hi != want*7 || r.Value != want*11 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Replay with a cut: only LSNs > 60.
	recs, _ = collect(t, b, 60)
	if len(recs) != 40 || recs[0].LSN != 61 {
		t.Fatalf("after=60 replayed %d starting at %d", len(recs), recs[0].LSN)
	}
}

func TestScanIsIdempotentAndReadOnly(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 32; i++ {
		l.Append(OpInsert, layout.Key{Lo: i}, i)
	}
	if err := l.Sync(32); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A crash during replay restarts replay from scratch; three scans
	// (one abandoned half-way) must see identical records.
	half := 0
	stop := fmt.Errorf("simulated crash mid-replay")
	if _, _, err := Scan(b, 0, func(r Record) error {
		half++
		if half == 16 {
			return stop
		}
		return nil
	}); err != stop {
		t.Fatalf("aborted scan returned %v", err)
	}
	a, _ := collect(t, b, 0)
	c, _ := collect(t, b, 0)
	if len(a) != 32 || len(c) != 32 {
		t.Fatalf("scans after aborted scan saw %d and %d records", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("scan divergence at %d: %+v vs %+v", i, a[i], c[i])
		}
	}
}

func TestTornTailStopsReplay(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		l.Append(OpPut, layout.Key{Lo: i}, i)
	}
	if err := l.Sync(10); err != nil {
		t.Fatal(err)
	}
	path := l.ActivePath()
	synced := l.SyncedSize()
	l.Close()

	// Simulate a torn write: keep the fsynced prefix plus half a
	// record of garbage.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, buf[:synced]...), 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != 10 || next != 11 {
		t.Fatalf("torn tail: replayed %d, next=%d", len(recs), next)
	}

	// Corrupt a byte inside the last durable record: replay must stop
	// before it, never deliver garbage.
	buf[synced-10] ^= 0xff
	if err := os.WriteFile(path, buf[:synced], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ = collect(t, b, 0)
	if len(recs) != 9 {
		t.Fatalf("corrupt record: replayed %d, want 9", len(recs))
	}
}

func TestRotateAndTruncate(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		l.Append(OpInsert, layout.Key{Lo: i}, i)
	}
	if err := l.Rotate(); err != nil { // snapshot at LSN 5
		t.Fatal(err)
	}
	for i := uint64(6); i <= 8; i++ {
		l.Append(OpInsert, layout.Key{Lo: i}, i)
	}
	if err := l.Sync(8); err != nil {
		t.Fatal(err)
	}
	// Both segments present: full replay sees 8, replay past the
	// snapshot mark sees 3.
	recs, next := collect(t, b, 0)
	if len(recs) != 8 || next != 9 {
		t.Fatalf("pre-truncate replay %d, next=%d", len(recs), next)
	}
	recs, _ = collect(t, b, 5)
	if len(recs) != 3 || recs[0].LSN != 6 {
		t.Fatalf("post-mark replay %d records from %d", len(recs), recs[0].LSN)
	}
	// Truncation deletes the sealed segment, keeps the active one.
	if err := l.TruncateThrough(5); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath(b, 1)); !os.IsNotExist(err) {
		t.Fatalf("sealed covered segment survived truncation: %v", err)
	}
	if _, err := os.Stat(segPath(b, 2)); err != nil {
		t.Fatalf("active segment deleted: %v", err)
	}
	l.Close()
	recs, next = collect(t, b, 5)
	if len(recs) != 3 || next != 9 {
		t.Fatalf("post-truncate replay %d, next=%d", len(recs), next)
	}
}

func TestReopenAfterCrashStartsFreshSegment(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		l.Append(OpPut, layout.Key{Lo: i}, i)
	}
	if err := l.Sync(4); err != nil {
		t.Fatal(err)
	}
	// "Crash": no Close. Reopen at next = Scan's answer.
	_, next := collect(t, b, 0)
	l2, err := Open(b, next)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Append(OpPut, layout.Key{Lo: 99}, 99); got != 5 {
		t.Fatalf("post-crash LSN %d, want 5", got)
	}
	if err := l2.Sync(5); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, _ := collect(t, b, 0)
	if len(recs) != 5 || recs[4].Key.Lo != 99 {
		t.Fatalf("replay after reopen: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

func TestDeadSegmentTolerated(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(OpPut, layout.Key{Lo: 1}, 1)
	if err := l.Sync(1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Crash mid-segment-creation: a file with a truncated header.
	if err := os.WriteFile(segPath(b, 2), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != 1 || next != 2 {
		t.Fatalf("dead segment: replayed %d, next=%d", len(recs), next)
	}
	// Reopen must skip past the dead file's sequence number and a later
	// truncation must clean it up.
	l2, err := Open(b, next)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(OpPut, layout.Key{Lo: 2}, 2)
	if err := l2.Sync(2); err != nil {
		t.Fatal(err)
	}
	if err := l2.TruncateThrough(2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath(b, 2)); !os.IsNotExist(err) {
		t.Fatalf("dead segment not cleaned up: %v", err)
	}
	l2.Close()
	recs, _ = collect(t, b, 0)
	if len(recs) != 2 {
		t.Fatalf("after cleanup replayed %d", len(recs))
	}
}

// TestRotateConcurrentWithAppend is the regression test for the
// rotation race: Rotate used to read lastLSN for the new segment's
// start in a critical section separate from the flush-drain, so an
// Append landing in between got an LSN below the new header's start
// and was later written into that segment — where replay treated it
// as a torn tail and silently dropped an fsynced record. Hammer
// appends against rotations; every assigned LSN must replay exactly
// once.
func TestRotateConcurrentWithAppend(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The appender runs free — no per-record Sync, so appends flow
	// continuously through every phase of a concurrent rotation (the
	// racy window sat between Rotate's flush-drain and its start-LSN
	// read); an occasional Sync still exercises group commit against
	// the rotation.
	const total = 100_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= total; i++ {
			l.Append(OpInsert, layout.Key{Lo: i}, i)
			if i%8192 == 0 {
				if err := l.Sync(i); err != nil {
					t.Errorf("Sync(%d): %v", i, err)
					return
				}
			}
		}
	}()
	rotations := 0
	for {
		select {
		case <-done:
		default:
			if err := l.Rotate(); err != nil {
				t.Fatalf("Rotate %d: %v", rotations, err)
			}
			rotations++
			continue
		}
		break
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rotations against %d appends", rotations, total)
	recs, next := collect(t, b, 0)
	if len(recs) != total || next != total+1 {
		t.Fatalf("replayed %d records, next=%d; rotation dropped records", len(recs), next)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Key.Lo != uint64(i+1) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestAppendInRotateWindow pins the rotation race deterministically:
// an Append landing between Rotate's flush-drain and its start-LSN
// decision (injected via the test hook) must end up in the new
// segment under a header start that covers it. Rotate used to re-read
// lastLSN after the drain, stamping the new header one past the raced
// record — which replay then treated as a torn tail, silently
// dropping an fsynced record.
func TestAppendInRotateWindow(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		l.Append(OpPut, layout.Key{Lo: i}, i)
	}
	testHookRotateAfterDrain = func() {
		if got := l.Append(OpPut, layout.Key{Lo: 4}, 4); got != 4 {
			t.Errorf("raced Append assigned LSN %d, want 4", got)
		}
	}
	defer func() { testHookRotateAfterDrain = nil }()
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	testHookRotateAfterDrain = nil
	l.Append(OpPut, layout.Key{Lo: 5}, 5)
	if err := l.Sync(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if start, err := readSegHeader(segPath(b, 2)); err != nil || start != 4 {
		t.Fatalf("new segment header start = (%d, %v), want 4: the raced record is below it", start, err)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != 5 || next != 6 {
		t.Fatalf("replayed %d records, next=%d; the raced record was dropped", len(recs), next)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Key.Lo != uint64(i+1) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestWideSegmentSuffix pins recovery of segments whose sequence
// number outgrows segPath's 8-digit padding: %08d widens to 9+ digits
// past 99,999,999, and listSegments used to require exactly 8,
// silently dropping such segments (and their acked records) at
// recovery.
func TestWideSegmentSuffix(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		l.Append(OpPut, layout.Key{Lo: i}, i)
	}
	if err := l.Sync(3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Rewrite the segment as sequence 100,000,000 — header seq patched
	// and the header CRC recomputed, then the 9-digit filename.
	const wideSeq = 100_000_000
	buf, err := os.ReadFile(segPath(b, 1))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(buf[8:16], wideSeq)
	binary.LittleEndian.PutUint32(buf[24:28], crc32.Checksum(buf[:24], crcTable))
	if err := os.WriteFile(segPath(b, wideSeq), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segPath(b, 1)); err != nil {
		t.Fatal(err)
	}
	if got := segPath(b, wideSeq); len(filepath.Ext(got)) != 10 { // ".100000000"
		t.Fatalf("segPath(%d) = %q, expected a 9-digit suffix", uint64(wideSeq), got)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != 3 || next != 4 {
		t.Fatalf("wide-suffix segment: replayed %d, next=%d", len(recs), next)
	}
	// Reopen continues past the wide sequence number and replays the
	// whole chain.
	l2, err := Open(b, next)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Append(OpPut, layout.Key{Lo: 4}, 4); got != 4 {
		t.Fatalf("post-reopen LSN %d, want 4", got)
	}
	if err := l2.Sync(4); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if _, err := os.Stat(segPath(b, wideSeq+1)); err != nil {
		t.Fatalf("reopen did not continue from the wide sequence: %v", err)
	}
	recs, _ = collect(t, b, 0)
	if len(recs) != 4 {
		t.Fatalf("after reopen replayed %d records, want 4", len(recs))
	}
}

// TestGroupCommitConcurrent hammers Append+Sync from many goroutines:
// every Sync that returns nil must really cover the caller's LSN, and
// the final file must replay every record exactly once in LSN order.
func TestGroupCommitConcurrent(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn := l.Append(OpInsert, layout.Key{Lo: uint64(w)<<32 | uint64(i+1)}, uint64(i))
				if i%7 == 0 {
					if err := l.Sync(lsn); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
					if l.DurableLSN() < lsn {
						t.Errorf("Sync(%d) returned with durable=%d", lsn, l.DurableLSN())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != workers*per || next != workers*per+1 {
		t.Fatalf("replayed %d records, next=%d", len(recs), next)
	}
	seen := make(map[uint64]bool, len(recs))
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
		if seen[r.Key.Lo] {
			t.Fatalf("key %#x appears twice", r.Key.Lo)
		}
		seen[r.Key.Lo] = true
	}
}

// TestReplayChunks: Replay hands its applier the records past the mark
// as batch ops in LSN order, in chunks of replayChunk, across segments
// and an LSN gap between them; a failed op stops the replay with an
// error naming its LSN.
func TestReplayChunks(t *testing.T) {
	b := base(t)
	l, err := Open(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{OpPut, OpInsert, OpDelete}
	const first = replayChunk + 10 // records in the first segment
	for i := uint64(1); i <= first; i++ {
		l.Append(ops[i%3], layout.Key{Lo: i}, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A second segment after a gap, as a lost unsynced tail leaves.
	if l, err = Open(b, 20001); err != nil {
		t.Fatal(err)
	}
	for i := uint64(20001); i <= 20100; i++ {
		l.Append(ops[i%3], layout.Key{Lo: i}, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	kinds := map[Op]core.BatchKind{OpPut: core.BatchPut, OpInsert: core.BatchInsert, OpDelete: core.BatchDelete}
	var chunks []int
	var lsns []uint64
	applied, next, err := Replay(b, 5, func(batch []core.BatchOp, out []core.BatchResult) {
		chunks = append(chunks, len(batch))
		for i, op := range batch {
			if op.Key.Lo != op.Value || op.Kind != kinds[ops[op.Value%3]] {
				t.Fatalf("op %+v does not match its record", op)
			}
			lsns = append(lsns, op.Value)
			out[i] = core.BatchResult{}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{replayChunk, first - 5 - replayChunk + 100}; fmt.Sprint(chunks) != fmt.Sprint(want) {
		t.Fatalf("chunks %v, want %v", chunks, want)
	}
	if applied != len(lsns) || applied != first-5+100 || next != 20101 {
		t.Fatalf("Replay = (%d, %d) over %d ops", applied, next, len(lsns))
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("LSN %d after %d", lsns[i], lsns[i-1])
		}
	}

	boom := errors.New("boom")
	applied, _, err = Replay(b, 5, func(batch []core.BatchOp, out []core.BatchResult) {
		for i, op := range batch {
			out[i] = core.BatchResult{}
			if op.Value == 20050 || op.Value == 20060 {
				out[i].Err = boom
			}
		}
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "record 20050:") {
		t.Fatalf("Replay error %v, want boom naming record 20050", err)
	}
	if applied != first-5+49 {
		t.Fatalf("applied %d before the failure, want %d", applied, first-5+49)
	}
}
