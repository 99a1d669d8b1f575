package core

import (
	"runtime"
	"sync"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// This file extends InsertBatch's one-count-persist contract to the
// concurrent store: ApplyBatch applies a burst of mutations with one
// stripe-lock acquisition, one count persist, and one commit-hook call
// per STRIPE-RUN (a maximal run of same-stripe ops after a stable sort)
// instead of one of each per key. The server's reader funnels both
// explicit OpBatch frames and coalesced pipelined bursts through here.
//
// Crash semantics are InsertBatch's, per stripe-run: each cell commit
// is individually failure atomic, so a crash mid-run leaves a prefix of
// the run committed and the count word stale — exactly the state
// Algorithm 4's recovery (Recover) already repairs by recomputing the
// count from the bitmaps. Nothing in a run is acked before the commit
// hook has made it durable, so the committed prefix is always a prefix
// of what was logged.

// BatchKind selects the mutation a BatchOp performs.
type BatchKind uint8

const (
	// BatchPut upserts: overwrite in place if the key exists, insert
	// otherwise (Concurrent.Upsert's semantics).
	BatchPut BatchKind = iota + 1
	// BatchInsert inserts with Algorithm-1 semantics: no existing-key
	// check, duplicates allowed.
	BatchInsert
	// BatchDelete removes the key if present.
	BatchDelete
)

// BatchOp is one mutation of a batch.
type BatchOp struct {
	Kind  BatchKind
	Key   layout.Key
	Value uint64 // ignored by BatchDelete
}

// BatchResult is one op's outcome.
type BatchResult struct {
	// Err is nil, hashtab.ErrInvalidKey, or hashtab.ErrTableFull.
	Err error
	// Found reports the key already existed: a BatchPut that updated in
	// place, or a BatchDelete that removed something. An op with
	// Found=false and Err=nil inserted (Put/Insert) or found nothing to
	// remove (Delete).
	Found bool
}

// BatchScratch holds ApplyBatch's reusable working state so a serving
// loop pays zero steady-state allocations per batch. The zero value is
// ready; not safe for concurrent use.
type BatchScratch struct {
	order   []int32 // valid-key op indices, stable-grouped by stripe
	stripes []int32 // stripe per op, -1 = invalid key
	counts  []int32 // counting-sort workspace, one slot per stripe
	applied []int   // per-run op indices handed to the commit hook
	// workers lends each ApplyBatchParallel goroutine its own applied
	// buffer.
	workers []BatchScratch
}

// ApplyBatch applies ops in stripe-grouped runs, writing per-op
// outcomes into out (len(out) must equal len(ops)). Within a stripe,
// ops apply in submission order; across stripes, runs apply in stripe
// order — safe, because ops on different stripes can never touch the
// same key.
//
// Per stripe-run it takes the stripe lock once, applies every op of the
// run, bumps the count once (one persist barrier for the whole run),
// and — still inside the critical section — calls committed with the
// indices of the ops that actually mutated cells, in apply order. The
// server appends those to its oplog there, making (apply, log) one
// atomic step against Quiesce — the snapshot path reads its oplog mark
// with every stripe held, so the mark always equals exactly what the
// captured image contains. committed must not touch the store
// (self-deadlock) and must be brief. The applied slice is scratch:
// committed must consume it before returning.
//
// A full group mid-run commits the prefix (count + hook), releases the
// stripe, waits for the online expansion to make room (awaitRoom), and
// resumes the run against the grown table — the same retry loop as
// Insert, amortised. If expansion itself fails, the blocked op
// reports ErrTableFull and the rest of the run still applies (deletes
// and in-place puts can succeed in a full table).
//
// sc may be nil (a scratch is then allocated); committed may be nil.
func (c *Concurrent) ApplyBatch(ops []BatchOp, out []BatchResult, sc *BatchScratch, committed func(applied []int)) {
	if sc == nil {
		sc = &BatchScratch{}
	}
	if !c.groupByStripe(ops, out, sc) {
		return
	}
	c.applyRuns(ops, out, sc.stripes, sc.order, sc, committed)
}

// ApplyBatchParallel is ApplyBatch with no commit hook and the stripe-
// runs spread over min(GOMAXPROCS, stripes) goroutines, each applying
// a contiguous range of stripes sized to an equal share of the ops.
// Oplog replay drives it: with no hook there is no append to pair with
// a snapshot cut, and ops on different stripes never touch the same
// key, so per-key submission order survives exactly as in ApplyBatch.
// It returns once every op has applied. Online expansion proceeds as
// on the live path, each goroutine waiting in awaitRoom for its own
// stripe. sc must not be nil; its buffers, including one per
// goroutine, are reused across calls.
func (c *Concurrent) ApplyBatchParallel(ops []BatchOp, out []BatchResult, sc *BatchScratch) {
	if !c.groupByStripe(ops, out, sc) {
		return
	}
	order := sc.order
	p := runtime.GOMAXPROCS(0)
	if p > len(c.stripes) {
		p = len(c.stripes)
	}
	if p <= 1 || len(order) < 2 {
		c.applyRuns(ops, out, sc.stripes, order, sc, nil)
		return
	}
	for len(sc.workers) < p {
		sc.workers = append(sc.workers, BatchScratch{})
	}
	var wg sync.WaitGroup
	start := 0
	for w := 0; w < p-1 && start < len(order); w++ {
		// Cut at the first stripe boundary at or past an equal share.
		end := len(order) * (w + 1) / p
		if end <= start {
			end = start + 1
		}
		for end < len(order) && sc.stripes[order[end]] == sc.stripes[order[end-1]] {
			end++
		}
		wg.Add(1)
		go func(part []int32, wsc *BatchScratch) {
			defer wg.Done()
			c.applyRuns(ops, out, sc.stripes, part, wsc, nil)
		}(order[start:end], &sc.workers[w])
		start = end
	}
	c.applyRuns(ops, out, sc.stripes, order[start:], &sc.workers[p-1], nil)
	wg.Wait()
}

// groupByStripe resets out, marks invalid keys, and fills sc.order
// with the valid ops' indices stably grouped by stripe (sc.stripes[i]
// is op i's stripe, -1 for an invalid key). It reports whether any op
// is left to apply.
func (c *Concurrent) groupByStripe(ops []BatchOp, out []BatchResult, sc *BatchScratch) bool {
	if len(ops) != len(out) {
		panic("core: ApplyBatch len(ops) != len(out)")
	}
	if len(ops) == 0 {
		return false
	}
	if cap(sc.stripes) < len(ops) {
		sc.stripes = make([]int32, len(ops))
	}
	sc.stripes = sc.stripes[:len(ops)]
	ns := len(c.stripes)
	if cap(sc.counts) < ns {
		sc.counts = make([]int32, ns)
	}
	counts := sc.counts[:ns]
	for s := range counts {
		counts[s] = 0
	}
	valid := 0
	for i := range ops {
		out[i] = BatchResult{}
		if !c.t.l.ValidKey(ops[i].Key) {
			out[i].Err = hashtab.ErrInvalidKey
			sc.stripes[i] = -1
			continue
		}
		_, si := c.stripeFor(ops[i].Key)
		sc.stripes[i] = int32(si)
		counts[si]++
		valid++
	}
	// Stable counting sort by stripe: O(ops + stripes) with no
	// comparator calls (a comparison sort here is ~15% of a batched
	// put's CPU). Submission order survives within a stripe — same-key
	// ops share a stripe, so program order per key is preserved.
	if cap(sc.order) < valid {
		sc.order = make([]int32, valid)
	}
	sc.order = sc.order[:valid]
	next := int32(0)
	for s := range counts {
		n := counts[s]
		counts[s] = next
		next += n
	}
	for i := range ops {
		if si := sc.stripes[i]; si >= 0 {
			sc.order[counts[si]] = int32(i)
			counts[si]++
		}
	}
	return valid > 0
}

// applyRuns applies order, a stripe-grouped slice of op indices, one
// stripe-run at a time; stripes maps op index to stripe and sc lends
// its applied buffer.
func (c *Concurrent) applyRuns(ops []BatchOp, out []BatchResult, stripes, order []int32, sc *BatchScratch, committed func(applied []int)) {
	for start := 0; start < len(order); {
		si := stripes[order[start]]
		end := start + 1
		for end < len(order) && stripes[order[end]] == si {
			end++
		}
		c.applyRun(ops, out, sc, int(si), order[start:end], committed)
		start = end
	}
}

// applyRun applies one stripe-run (the op indices in run, all mapping
// to stripe si), re-locking and resuming after each expansion wait.
func (c *Concurrent) applyRun(ops []BatchOp, out []BatchResult, sc *BatchScratch, si int, run []int32, committed func(applied []int)) {
	s := &c.stripes[si]
	noRoom := false // a failed awaitRoom: full-group ops now fail for good
	i := 0
	for i < len(run) {
		s.lock()
		vw := c.routeView(si)
		sc.applied = sc.applied[:0]
		delta := int64(0)
		full := false
		for ; i < len(run); i++ {
			idx := int(run[i])
			op := &ops[idx]
			switch op.Kind {
			case BatchPut:
				if c.t.updateIn(vw, op.Key, op.Value) {
					out[idx].Found = true
					sc.applied = append(sc.applied, idx)
					continue
				}
				if c.t.placeIn(vw, op.Key, op.Value) {
					delta++
					sc.applied = append(sc.applied, idx)
					continue
				}
			case BatchInsert:
				if c.t.placeIn(vw, op.Key, op.Value) {
					delta++
					sc.applied = append(sc.applied, idx)
					continue
				}
			case BatchDelete:
				if c.t.removeIn(vw, op.Key) {
					out[idx].Found = true
					delta--
					sc.applied = append(sc.applied, idx)
				}
				continue
			default:
				panic("core: ApplyBatch: unknown BatchKind")
			}
			// Placement failed: the op's groups are full.
			if noRoom {
				out[idx].Err = hashtab.ErrTableFull
				continue
			}
			full = true
			break
		}
		if delta != 0 {
			c.bumpCount(delta)
		}
		if len(sc.applied) > 0 && committed != nil {
			committed(sc.applied)
		}
		s.unlock()
		if c.hookBatchRunCommitted != nil {
			c.hookBatchRunCommitted(si)
		}
		if full {
			// The committed prefix stays committed (exactly InsertBatch's
			// contract); wait for room and resume the run where it stopped.
			if err := c.awaitRoom(si); err != nil {
				noRoom = true
			}
		}
	}
	c.maybeTriggerExpand()
}
