package oplog

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grouphash/internal/layout"
)

// TestAdaptiveRoundtrip proves a timed commit window keeps the exact
// durability contract of the zero window: records acknowledged by
// WaitDurable are on disk in strict LSN order, across concurrent
// appenders, with segments preallocated. It also pins the whole point
// of the window — far fewer fsyncs than records.
func TestAdaptiveRoundtrip(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{
		SyncEvery:     500 * time.Microsecond,
		SyncBytes:     16 << 10,
		PreallocBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 250
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lsn := l.Append(OpPut, layout.Key{Lo: uint64(w)<<32 | uint64(i)}, uint64(i))
				if err := l.WaitDurable(lsn); err != nil {
					errs <- fmt.Errorf("WaitDurable(%d): %w", lsn, err)
					return
				}
				if d := l.DurableLSN(); d < lsn {
					errs <- fmt.Errorf("WaitDurable(%d) returned with durable=%d", lsn, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fsyncs := l.Fsyncs()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != workers*perWorker {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*perWorker)
	}
	if next != workers*perWorker+1 {
		t.Fatalf("next LSN %d, want %d", next, workers*perWorker+1)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	if fsyncs >= workers*perWorker {
		t.Fatalf("%d fsyncs for %d records: adaptive mode amortised nothing", fsyncs, workers*perWorker)
	}
	t.Logf("%d records, %d fsyncs", workers*perWorker, fsyncs)
}

// TestAdaptiveByteTrigger pins the B side of the (T, B) window: with a
// prohibitively long SyncEvery, crossing SyncBytes must release
// waiters on its own, long before the timer.
func TestAdaptiveByteTrigger(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{SyncEvery: time.Minute, SyncBytes: 4 * recordLen})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 4; i++ {
		last = l.Append(OpPut, layout.Key{Lo: uint64(i + 1)}, 1)
	}
	within(t, "WaitDurable behind a one-minute timer", func() error { return l.WaitDurable(last) })
}

// TestAdaptiveZeroTailIgnored proves preallocation is recovery-safe:
// the zero-filled region past the last fsynced record reads as a torn
// tail (CRC + sequence break) and replay stops exactly at the durable
// prefix, even when unsynced staged records and the zero tail coexist.
func TestAdaptiveZeroTailIgnored(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{SyncEvery: time.Millisecond, PreallocBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		last = l.Append(OpPut, layout.Key{Lo: uint64(i + 1)}, uint64(i))
	}
	if err := l.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	path := l.ActivePath()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 64<<10 {
		t.Fatalf("active segment size %v, %v; want the full preallocated 64KiB", fi.Size(), err)
	}
	// Stage three more records but never let them commit.
	for i := 5; i < 8; i++ {
		l.Append(OpPut, layout.Key{Lo: uint64(i + 1)}, uint64(i))
	}
	l.Abort() // power failure: staged records die in memory, zero tail stays on disk
	recs, next := collect(t, b, 0)
	if len(recs) != 5 || next != 6 {
		t.Fatalf("replayed %d records (next %d), want the 5 durable ones", len(recs), next)
	}
}

// TestZeroWindowCommit pins the zero-window commit pattern: appends
// alone never fsync, the first waiter makes everything staged before it
// durable with one fsync, Sync past LastLSN returns instead of hanging,
// and Sync closes a long timed window at once.
func TestZeroWindowCommit(t *testing.T) {
	l, err := OpenConfig(base(t), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 16; i++ {
		last = l.Append(OpPut, layout.Key{Lo: uint64(i + 1)}, 1)
	}
	time.Sleep(20 * time.Millisecond) // room for a committer that wrongly fsyncs on appends
	if n := l.Fsyncs(); n != 0 {
		t.Fatalf("%d fsyncs with nobody waiting, want 0", n)
	}
	if err := l.WaitDurable(1); err != nil {
		t.Fatal(err)
	}
	if d, n := l.DurableLSN(), l.Fsyncs(); d != last || n != 1 {
		t.Fatalf("after one wait: durable %d with %d fsyncs, want %d with 1", d, n, last)
	}

	last = l.Append(OpPut, layout.Key{Lo: 100}, 1)
	within(t, "Sync past LastLSN", func() error { return l.Sync(l.LastLSN() + 5) })
	if d, n := l.DurableLSN(), l.Fsyncs(); d != last || n != 2 {
		t.Fatalf("after Sync past LastLSN: durable %d with %d fsyncs, want %d with 2", d, n, last)
	}

	timed, err := OpenConfig(base(t), 1, Config{SyncEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer timed.Close()
	lsn := timed.Append(OpPut, layout.Key{Lo: 1}, 1)
	within(t, "Sync inside a one-minute window", func() error { return timed.Sync(lsn) })
}

// within runs fn and fails the test if it errs or takes more than ten
// seconds.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// TestBatchFailureFanOut is the regression test for the group-commit
// failure contract: when one fsync fails, EVERY waiter of that batch —
// and every append racing the failure — must observe the error; none
// may hang, and none may be told its record is durable. The error must
// stay sticky after the injected fault is cleared. The "legacy" row is
// the zero window, the "adaptive" row a timed one.
func TestBatchFailureFanOut(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"legacy", Config{}},
		{"adaptive", Config{SyncEvery: 200 * time.Microsecond}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			b := base(t)
			l, err := OpenConfig(b, 1, mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			boom := errors.New("injected fsync failure")
			var armed atomic.Bool
			SetTestFsyncErr(func() error {
				if armed.Load() {
					return boom
				}
				return nil
			})
			defer SetTestFsyncErr(nil)

			// A healthy batch first: the failure must not be retroactive.
			lsn := l.Append(OpPut, layout.Key{Lo: 1}, 1)
			if err := l.WaitDurable(lsn); err != nil {
				t.Fatalf("healthy batch: %v", err)
			}
			armed.Store(true)

			const waiters = 8
			var wg sync.WaitGroup
			got := make([]error, waiters)
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lsn := l.Append(OpPut, layout.Key{Lo: uint64(i + 2)}, 1)
					got[i] = l.WaitDurable(lsn)
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("a waiter of the failed batch hung instead of observing the error")
			}
			for i, err := range got {
				if err == nil {
					t.Fatalf("waiter %d was told its record is durable across a failed fsync", i)
				}
			}
			if d := l.DurableLSN(); d != 1 {
				t.Fatalf("durable watermark %d moved past the failed fsync", d)
			}

			// Sticky: clearing the fault does not resurrect the log.
			armed.Store(false)
			lsn = l.Append(OpPut, layout.Key{Lo: 100}, 1)
			if err := l.WaitDurable(lsn); err == nil {
				t.Fatal("WaitDurable succeeded after a sticky I/O failure")
			}
			if err := l.Sync(lsn); err == nil {
				t.Fatal("Sync succeeded after a sticky I/O failure")
			}
		})
	}
}

// TestCloseRacesAppendAndWaitDurable hammers the shutdown ordering
// under the race detector: appenders and waiters run full tilt while
// Close stops the committer, takes the final flush and releases every
// parked waiter. No goroutine may hang, and every record whose
// WaitDurable returned nil must be on disk afterwards.
func TestCloseRacesAppendAndWaitDurable(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	ackedCh := make(chan uint64, 4096)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				lsn := l.Append(OpPut, layout.Key{Lo: w<<32 | i}, i)
				if err := l.WaitDurable(lsn); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("worker %d: %v", w, err)
					}
					return
				}
				ackedCh <- lsn
			}
		}(uint64(w))
	}
	time.Sleep(2 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a worker hung across Close")
	}
	close(ackedCh)
	onDisk := make(map[uint64]bool)
	if _, _, err := Scan(b, 0, func(r Record) error {
		onDisk[r.LSN] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for lsn := range ackedCh {
		acked++
		if !onDisk[lsn] {
			t.Fatalf("LSN %d was acked durable but is not on disk after Close", lsn)
		}
	}
	t.Logf("%d acked records, all on disk", acked)
}
