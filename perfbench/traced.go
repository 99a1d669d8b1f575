package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

// spanName names a layer boundary the benchmark times from outside.
type spanName uint8

const (
	spanFrameRead  spanName = iota // a client read frame, send to answer
	spanFrameWrite                 // a client write frame, send to answer
	spanGet                        // engine.Get
	spanMGet                       // engine.MGet
	spanApply                      // engine.ApplyBatch
	spanCommit                     // ApplyBatch's commit callback: the server's oplog staging
	spanReplay                     // engine.ReplayOplog
	spanLoad                       // engine.Load: the pmfs image read and reopen
	spanSnapshot                   // engine.SnapshotWriterAt: capture and image write
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.frame.read", "client.frame.write", "engine.Get", "engine.MGet",
	"engine.ApplyBatch", "oplog.commit_callback", "engine.ReplayOplog",
	"pmfs.load", "pmfs.snapshot",
}

// layerStat aggregates the calls through one boundary that land on
// one shard. selfNs is the calls' time minus the time of the child
// spans nested in them.
type layerStat struct {
	calls, units, ns, selfNs atomic.Uint64
	hist                     stats.Histogram
	_                        [64]byte // keeps shards off each other's cache lines
}

// shards spreads each layer's counters so that the server's
// connection goroutines, timing millions of calls a second, do not
// contend on one cache line.
const shards = 8

// span is one ledger entry; times are ns since the recorder's epoch.
type span struct {
	ID, Parent uint64
	Name       spanName
	Start, End int64
}

// Ledger bounds: the ledger keeps one span tree in ledgerEvery, drawn
// at random (every one for the rare load, snapshot and replay spans),
// and at most ledgerCap spans, so a traced run's memory stays small at
// millions of calls per second. The aggregates count every call.
const (
	ledgerEvery = 256
	ledgerCap   = 1 << 17
)

// recorder holds the aggregates and the span ledger of a traced run.
type recorder struct {
	epoch   time.Time
	layers  [numSpanNames][shards]layerStat
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped atomic.Uint64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// keepRoot decides whether a span tree rooted in a name enters the
// ledger; only kept spans get an id.
func (r *recorder) keepRoot(name spanName) (id uint64, keep bool) {
	if name >= spanReplay || rand.Uint64N(ledgerEvery) == 0 {
		return r.ids.Add(1), true
	}
	return 0, false
}

// child returns the id of a child span of a kept parent.
func (r *recorder) child(keep bool) uint64 {
	if !keep {
		return 0
	}
	return r.ids.Add(1)
}

// record accounts one finished span. childNs is the time its children
// covered; keep says whether it enters the ledger.
func (r *recorder) record(name spanName, parent, id uint64, start, end time.Time, units, childNs uint64, keep bool) {
	d := uint64(end.Sub(start))
	l := &r.layers[name][rand.Uint64()%shards]
	l.calls.Add(1)
	l.units.Add(units)
	l.ns.Add(d)
	l.selfNs.Add(d - min(childNs, d))
	l.hist.Observe(d)
	if !keep {
		return
	}
	r.mu.Lock()
	if len(r.spans) < ledgerCap {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// layerSnap is a point-in-time copy of one layer's aggregates.
type layerSnap struct {
	calls, units, ns, selfNs uint64
	hist                     *stats.HistSnapshot
}

func (r *recorder) snapshot() [numSpanNames]layerSnap {
	var s [numSpanNames]layerSnap
	for i := range r.layers {
		s[i].hist = &stats.HistSnapshot{}
		for j := range r.layers[i] {
			l := &r.layers[i][j]
			s[i].calls += l.calls.Load()
			s[i].units += l.units.Load()
			s[i].ns += l.ns.Load()
			s[i].selfNs += l.selfNs.Load()
			s[i].hist.Merge(l.hist.Snapshot())
		}
	}
	return s
}

// writeLedger writes the kept spans as JSON lines.
func (r *recorder) writeLedger(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, spanNames[s.Name], s.Start, s.End)
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine is the timing wrapper: an engine.Engine around the real
// engine that times the calls the serving stack makes into the engine
// while on is set, and passes every argument and result through
// unchanged. The server makes no type assertions on its engine, so the
// wrapper changes nothing but the timing.
type tracedEngine struct {
	engine.Engine
	rec   *recorder
	on    *atomic.Bool
	calls sync.Pool // *applyCall, so a traced ApplyBatch allocates nothing
}

func newTracedEngine(e engine.Engine, rec *recorder, on *atomic.Bool) *tracedEngine {
	t := &tracedEngine{Engine: e, rec: rec, on: on}
	t.calls.New = func() any {
		c := &applyCall{t: t}
		c.hook = c.commit
		return c
	}
	return t
}

func (t *tracedEngine) Get(k layout.Key) (uint64, bool) {
	if !t.on.Load() {
		return t.Engine.Get(k)
	}
	id, keep := t.rec.keepRoot(spanGet)
	start := time.Now()
	v, ok := t.Engine.Get(k)
	t.rec.record(spanGet, 0, id, start, time.Now(), 1, 0, keep)
	return v, ok
}

func (t *tracedEngine) MGet(keys []layout.Key, vals []uint64, found []bool) {
	if !t.on.Load() {
		t.Engine.MGet(keys, vals, found)
		return
	}
	id, keep := t.rec.keepRoot(spanMGet)
	start := time.Now()
	t.Engine.MGet(keys, vals, found)
	t.rec.record(spanMGet, 0, id, start, time.Now(), uint64(len(keys)), 0, keep)
}

// applyCall is one traced ApplyBatch: it times each commit callback as
// a child span of the call.
type applyCall struct {
	t       *tracedEngine
	inner   func(applied []int)
	hook    func(applied []int) // c.commit, bound once
	parent  uint64
	keep    bool
	childNs uint64
}

func (c *applyCall) commit(applied []int) {
	start := time.Now()
	c.inner(applied)
	end := time.Now()
	c.childNs += uint64(end.Sub(start))
	c.t.rec.record(spanCommit, c.parent, c.t.rec.child(c.keep), start, end, uint64(len(applied)), 0, c.keep)
}

func (t *tracedEngine) ApplyBatch(ops []core.BatchOp, out []core.BatchResult, sc *core.BatchScratch, committed func(applied []int)) {
	if !t.on.Load() {
		t.Engine.ApplyBatch(ops, out, sc, committed)
		return
	}
	c := t.calls.Get().(*applyCall)
	c.parent, c.keep = t.rec.keepRoot(spanApply)
	c.inner, c.childNs = committed, 0
	hook := c.hook
	if committed == nil {
		hook = nil
	}
	start := time.Now()
	t.Engine.ApplyBatch(ops, out, sc, hook)
	t.rec.record(spanApply, 0, c.parent, start, time.Now(), uint64(len(ops)), c.childNs, c.keep)
	c.inner = nil
	t.calls.Put(c)
}

func (t *tracedEngine) SnapshotWriterAt(cut func() (uint64, error)) (func(path string) error, error) {
	if !t.on.Load() {
		return t.Engine.SnapshotWriterAt(cut)
	}
	start := time.Now()
	write, err := t.Engine.SnapshotWriterAt(cut)
	if err != nil {
		return nil, err
	}
	return func(path string) error {
		err := write(path)
		id, keep := t.rec.keepRoot(spanSnapshot)
		t.rec.record(spanSnapshot, 0, id, start, time.Now(), 1, 0, keep)
		return err
	}, nil
}

func (t *tracedEngine) ReplayOplog(base string, after uint64) (int, uint64, error) {
	if !t.on.Load() {
		return t.Engine.ReplayOplog(base, after)
	}
	start := time.Now()
	applied, next, err := t.Engine.ReplayOplog(base, after)
	id, keep := t.rec.keepRoot(spanReplay)
	t.rec.record(spanReplay, 0, id, start, time.Now(), uint64(applied), 0, keep)
	return applied, next, err
}
