package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/native"
)

func newBatchFixture(t *testing.T, cells, gsz uint64, stripes int) (*native.Memory, *Table, *Concurrent) {
	t.Helper()
	mem := native.New(1 << 20)
	tab, err := Create(mem, Options{Cells: cells, GroupSize: gsz, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return mem, tab, NewConcurrent(tab, stripes)
}

// TestApplyBatchBasic pins the stripe-grouped apply contract: per-op
// outcomes, same-key submission order within a stripe, one count
// persist per mutating stripe-run, and the commit hook seeing exactly
// the mutating ops in apply order.
func TestApplyBatchBasic(t *testing.T) {
	_, tab, c := newBatchFixture(t, 256, 16, 8)

	ops := []BatchOp{
		{Kind: BatchInsert, Key: layout.Key{Lo: 1}, Value: 10},
		{Kind: BatchPut, Key: layout.Key{Lo: 2}, Value: 20},
		{Kind: BatchPut, Key: layout.Key{Lo: 1}, Value: 11}, // same key as op 0: must update, not duplicate
		{Kind: BatchDelete, Key: layout.Key{Lo: 3}},         // absent: no-op
		{Kind: BatchInsert, Key: layout.Key{}, Value: 1},    // invalid zero key
		{Kind: BatchInsert, Key: layout.Key{Lo: 4}, Value: 40},
		{Kind: BatchDelete, Key: layout.Key{Lo: 4}}, // delete what op 5 inserted
	}
	out := make([]BatchResult, len(ops))
	var sc BatchScratch
	var hookCalls int
	applied := make(map[int]bool)
	persistsBefore := tab.CountPersists()
	c.ApplyBatch(ops, out, &sc, func(run []int) {
		hookCalls++
		for _, idx := range run {
			if applied[idx] {
				t.Errorf("op %d handed to the commit hook twice", idx)
			}
			applied[idx] = true
		}
	})

	if out[0].Err != nil || out[0].Found {
		t.Errorf("op 0 (fresh insert) = %+v", out[0])
	}
	if out[1].Err != nil || out[1].Found {
		t.Errorf("op 1 (fresh put) = %+v", out[1])
	}
	if out[2].Err != nil || !out[2].Found {
		t.Errorf("op 2 (same-key put) = %+v, want in-place update", out[2])
	}
	if out[3].Err != nil || out[3].Found {
		t.Errorf("op 3 (absent delete) = %+v", out[3])
	}
	if !errors.Is(out[4].Err, hashtab.ErrInvalidKey) {
		t.Errorf("op 4 (zero key) err = %v, want ErrInvalidKey", out[4].Err)
	}
	if out[5].Err != nil || !out[6].Found {
		t.Errorf("ops 5/6 (insert+delete) = %+v / %+v", out[5], out[6])
	}
	for _, want := range []int{0, 1, 2, 5, 6} {
		if !applied[want] {
			t.Errorf("mutating op %d never reached the commit hook", want)
		}
	}
	if applied[3] || applied[4] {
		t.Error("non-mutating op reached the commit hook")
	}

	if v, ok := c.Lookup(layout.Key{Lo: 1}); !ok || v != 11 {
		t.Errorf("key 1 = (%d, %v), want (11, true): same-key order violated", v, ok)
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	// Count persists: at most one per stripe-run that changed the count
	// (5 mutating ops across ≤ 8 stripes), never one per op.
	persists := tab.CountPersists() - persistsBefore
	if persists == 0 || persists > uint64(hookCalls) {
		t.Errorf("count persists = %d over %d runs — amortisation broken", persists, hookCalls)
	}
}

// TestApplyBatchAllocs pins the zero-steady-state-allocation contract
// with a reused scratch (no expansion in flight).
func TestApplyBatchAllocs(t *testing.T) {
	_, _, c := newBatchFixture(t, 1<<12, 16, 8)
	const n = 64
	ops := make([]BatchOp, n)
	out := make([]BatchResult, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchPut, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i)}
	}
	var sc BatchScratch
	committed := func(run []int) {}
	c.ApplyBatch(ops, out, &sc, committed) // warm the scratch
	if n := testing.AllocsPerRun(50, func() {
		c.ApplyBatch(ops, out, &sc, committed)
	}); n != 0 {
		t.Errorf("steady-state ApplyBatch allocates %.1f times per batch, want 0", n)
	}
}

// TestApplyBatchExpansionMidBatch drives a batch far past the initial
// capacity so placement fails mid-run and the run must wait out an
// online expansion and resume — the awaitRoom retry loop, amortised.
func TestApplyBatchExpansionMidBatch(t *testing.T) {
	_, tab, c := newBatchFixture(t, 64, 8, 4)
	c.EnableOnlineExpand()

	const n = 300 // initial capacity is 128 cells: forces ≥ 1 doubling mid-batch
	ops := make([]BatchOp, n)
	out := make([]BatchResult, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i + 1)}
	}
	c.ApplyBatch(ops, out, nil, nil)
	c.WaitExpansion()
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("op %d failed despite online expansion: %v", i, out[i].Err)
		}
	}
	if c.Expansions() == 0 {
		t.Fatal("batch fit without expanding — the test lost its point")
	}
	if got := c.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("key %d = (%d, %v) after mid-batch expansion", i, v, ok)
		}
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

// TestApplyBatchParallelMatchesApplyBatch: the replay entry point
// gives every op the outcome ApplyBatch gives it, and leaves the same
// contents, on twin tables fed the same batches. The batches repeat
// keys within and across batches (so per-key order matters), span all
// 16 stripes, and grow the table through online expansions. GOMAXPROCS
// is raised so the stripe ranges really run on several goroutines.
func TestApplyBatchParallelMatchesApplyBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, seqTab, seq := newBatchFixture(t, 1<<10, 8, 16)
	_, parTab, par := newBatchFixture(t, 1<<10, 8, 16)
	seq.EnableOnlineExpand()
	par.EnableOnlineExpand()

	// Puts and deletes of put keys (even Lo) depend on per-key order.
	// Insert keys (odd Lo) are inserted fresh or, now and then, again;
	// every copy carries the same value, because which duplicate a
	// lookup finds can change when a migration re-places them.
	rng := rand.New(rand.NewSource(3))
	const putKeys = 2000
	fresh := uint64(0)
	insertKey := func(i uint64) layout.Key { return layout.Key{Lo: 2*i + 1} }
	var sc, psc BatchScratch
	for b := 0; b < 12; b++ {
		ops := make([]BatchOp, 1+rng.Intn(2000))
		for i := range ops {
			pk := layout.Key{Lo: 2 * uint64(rng.Intn(putKeys))} // Lo 0 is the invalid zero key
			switch r := rng.Intn(20); {
			case r < 7:
				ops[i] = BatchOp{Kind: BatchInsert, Key: insertKey(fresh), Value: fresh}
				fresh++
			case r < 8:
				d := uint64(rng.Int63n(int64(fresh) + 1))
				ops[i] = BatchOp{Kind: BatchInsert, Key: insertKey(d), Value: d}
			case r < 10:
				ops[i] = BatchOp{Kind: BatchDelete, Key: insertKey(uint64(rng.Int63n(int64(fresh) + 10)))}
			case r < 13:
				ops[i] = BatchOp{Kind: BatchDelete, Key: pk}
			default:
				ops[i] = BatchOp{Kind: BatchPut, Key: pk, Value: rng.Uint64()}
			}
		}
		want := make([]BatchResult, len(ops))
		got := make([]BatchResult, len(ops))
		seq.ApplyBatch(ops, want, &sc, nil)
		par.ApplyBatchParallel(ops, got, &psc)
		for i := range ops {
			if got[i] != want[i] {
				t.Fatalf("batch %d op %d (%+v): parallel %+v, ApplyBatch %+v", b, i, ops[i], got[i], want[i])
			}
		}
	}
	seq.WaitExpansion()
	par.WaitExpansion()
	if par.Expansions() == 0 {
		t.Fatal("no online expansion during the parallel batches")
	}
	if seq.Len() != par.Len() {
		t.Fatalf("Len: parallel %d, ApplyBatch %d", par.Len(), seq.Len())
	}
	for k := uint64(1); k < 2*max(putKeys, fresh+10); k++ {
		wv, wok := seq.Lookup(layout.Key{Lo: k})
		gv, gok := par.Lookup(layout.Key{Lo: k})
		if wv != gv || wok != gok {
			t.Fatalf("key %d: parallel (%d, %v), ApplyBatch (%d, %v)", k, gv, gok, wv, wok)
		}
	}
	for _, tab := range []*Table{seqTab, parTab} {
		if bad := tab.CheckConsistency(); len(bad) != 0 {
			t.Fatalf("inconsistencies: %v", bad)
		}
	}
}

// TestApplyBatchCrashAtRunBoundaries is the batch crash-injection leg:
// capture the memory image at EVERY stripe-run boundary of a batch
// (the deterministic kill points), reopen each image as a restart
// would, run Recover, and verify the state is exactly the committed
// prefix of runs — every op of a committed run present exactly once,
// nothing from later runs, and the recomputed count agreeing — i.e.
// prefix-committed runs + stale count is a state recovery repairs.
func TestApplyBatchCrashAtRunBoundaries(t *testing.T) {
	mem, tab, c := newBatchFixture(t, 256, 16, 8)
	hdr := tab.Header()

	const n = 120
	ops := make([]BatchOp, n)
	out := make([]BatchResult, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i + 1)}
	}

	type capture struct {
		img       []byte
		allocated uint64
		byRun     [][]int // applied op indices of runs committed so far
	}
	var captures []capture
	var runs [][]int
	c.hookBatchRunCommitted = func(si int) {
		byRun := make([][]int, len(runs))
		copy(byRun, runs)
		captures = append(captures, capture{mem.Image(), mem.Allocated(), byRun})
	}
	c.ApplyBatch(ops, out, nil, func(applied []int) {
		runs = append(runs, append([]int(nil), applied...))
	})
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("op %d: %v", i, out[i].Err)
		}
	}
	if len(captures) < 2 {
		t.Fatalf("only %d stripe-runs — batch too small to exercise boundaries", len(captures))
	}

	for ci, cap := range captures {
		re := reopenImage(t, cap.img, cap.allocated, hdr)
		committed := make(map[uint64]bool)
		for _, run := range cap.byRun {
			for _, idx := range run {
				committed[ops[idx].Key.Lo] = true
			}
		}
		for i := uint64(1); i <= n; i++ {
			v, ok := re.Lookup(layout.Key{Lo: i})
			if committed[i] && (!ok || v != i) {
				t.Fatalf("capture %d: committed key %d = (%d, %v)", ci, i, v, ok)
			}
			if !committed[i] && ok {
				t.Fatalf("capture %d: uncommitted key %d present after crash", ci, i)
			}
		}
		if got := re.Len(); got != uint64(len(committed)) {
			t.Fatalf("capture %d: recovered count %d, want %d", ci, got, len(committed))
		}
		// Exactly-once: count matches and every committed key resolves, so
		// a duplicate could only hide if Range disagreed with Lookup.
		seen := make(map[uint64]int)
		re.Range(func(k layout.Key, v uint64) bool {
			seen[k.Lo]++
			return true
		})
		for k, times := range seen {
			if times != 1 {
				t.Fatalf("capture %d: key %d present %d times", ci, k, times)
			}
		}
	}
}
