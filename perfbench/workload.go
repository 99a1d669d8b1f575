package main

import (
	"fmt"
	"math/rand/v2"

	"grouphash/internal/layout"
	"grouphash/internal/trace"
	"grouphash/internal/wire"
)

// conns is the number of client connections every workload drives: one
// per CPU of the 2-CPU machine the benchmark was sized on, so client
// and server goroutines share the processors without oversubscription.
const conns = 2

// workload is one traffic mix. Every size is fixed here, never derived
// from the machine, so runs on different machines drive the same work.
type workload struct {
	name string
	// records is the number of keys preloaded before the timed phase; a
	// multiple of conns, so record ownership splits evenly.
	records uint64
	// capacity is the engine's item capacity at creation.
	capacity uint64
	// theta is the Zipf skew over records; 0 draws uniformly.
	theta float64
	// frameOps is the number of sub-ops per OpBatch frame of a closed
	// loop; an open loop sends single-op frames.
	frameOps int
	// inflight is the number of frames each connection keeps in flight
	// (closed loop).
	inflight int
	// budget is the number of frames each connection sends per cycle
	// (closed loop); 0 sends frames until the cycle's time slice ends.
	budget int
	// rate is the total op rate across connections of an open loop;
	// 0 runs a closed loop.
	rate float64
	// readFrac is the share of frames (or of single ops) that read; the
	// rest write.
	readFrac float64
	// insertFrac is the share of write ops that insert a fresh key; the
	// rest update an existing one.
	insertFrac float64
	// negFrac is the share of reads that ask for a never-inserted key.
	negFrac float64
}

// workloads are the benchmark's traffic mixes. The comment on each says
// which layers it loads and why it was chosen.
var workloads = []workload{
	// The engine lookup path (Get, the fingerprint screen and the
	// unscreened level-1 cell) does all of the work: keys follow Zipf
	// 0.99 over 2^20 records, whose hot set fits a 4 MiB L2, and a tenth
	// of the gets ask for keys never inserted. The mix is read-only: with 5% write frames every
	// read frame queued behind a write's fsync in the in-order ack, and
	// the host disk's fsync latency swung throughput by 30% from run to
	// run; write-grow measures the write path instead.
	{name: "read-zipf", records: 1 << 20, capacity: 1 << 20, theta: 0.99,
		frameOps: 64, inflight: 8, readFrac: 1, negFrac: 0.1},
	// The engine write path (ApplyBatch and the cell commit), oplog
	// staging and fsync, online expansion and, at recovery, replay. A
	// capacity of 2^17 items gets 2^18 cells, which expand at 3/4 full:
	// the preload stops just below that. Each cycle is a closed loop
	// with a fixed budget of 4700 frames of 64 ops per connection, about
	// 286 thousand fresh inserts, so the table doubles exactly twice, at
	// 196608 and 393216 items (a third doubling would need 606
	// thousand), and ends four times larger than a 4 MiB L2 whatever
	// the machine's speed; throughput is the budget over its time.
	// Each connection keeps 256 frames (16384 ops) in flight, so the
	// CPUs, not the host disk's fsync latency, bound the loop until an
	// fsync takes over 10 ms: with 32 the throughput still followed the
	// fsync latency, whose p99 on a shared host disk swings from 2 to
	// 12 ms, and its median moved between 520 and 1290 kops/s over ten
	// runs. A 5% probe of read frames over the preloaded keys gives this
	// write mix a read latency.
	{name: "write-grow", records: 22 << 13, capacity: 1 << 17,
		frameOps: 64, inflight: 256, budget: 4700, readFrac: 0.05, insertFrac: 0.5},
	// The per-request path: wire framing, coalescing of pipelined
	// singles, the commit-window wait and in-order ack release, with
	// reads queued behind writes. Single-op frames on a fixed schedule,
	// timed from each op's due time. 50k ops/s keeps the process about
	// two-thirds busy on 2 CPUs, below saturation (the generator stays
	// within 0.2 ms of schedule even traced); at 20k ops/s the process
	// was mostly idle and its CPU time per op, which is this workload's
	// bounded figure, mostly measured the Go runtime's idle spinning,
	// which shrinks whenever the host is busy. The table holds 2^20
	// records so that recovery reloads an image large enough to time
	// steadily.
	{name: "mixed-open", records: 1 << 20, capacity: 1 << 20,
		rate: 50000, readFrac: 0.5},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Key and value scheme. Record i has key keyOf(seed, i) and preload
// value i+1. A write by connection c carries value (c+1)<<56 | n for
// its n-th write, so every value names its writer and no two writes
// carry the same value. Connection c writes only the keys whose index
// is c modulo conns, so per key the last acked value is known exactly.
const (
	// negBase is the first index of the never-inserted keys reads probe.
	negBase = 1 << 40
	// writerShift places the writer's connection number in a value.
	writerShift = 56
)

// mix is the splitmix64 finaliser: a bijection on uint64 that maps only
// 0 to 0, so distinct non-zero inputs give distinct non-zero keys.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyOf is record idx's key under seed. idx stays below 2^41, so the
// seed's low 20 bits shifted above it keep every (seed, idx) input
// distinct and non-zero.
func keyOf(seed, idx uint64) layout.Key {
	return layout.Key{Lo: mix(idx + 1 + (seed&(1<<20-1))<<42)}
}

func preloadValue(idx uint64) uint64 { return idx + 1 }

func writerOf(v uint64) uint64 { return v >> writerShift }

// op is one generated operation: the request and the record index it
// targets.
type op struct {
	req wire.Request
	idx uint64
}

// generator is one connection's seeded op stream. The same (workload,
// seed, cycle, connection) always yields the same sequence of ops.
type generator struct {
	w      *workload
	seed   uint64
	conn   uint64
	rng    *rand.Rand
	zipf   *trace.Zipfian
	writes uint64 // writes generated so far; the low bits of each value
	fresh  uint64 // fresh keys inserted so far by this connection
}

func newGenerator(w *workload, seed uint64, cycle, conn int) *generator {
	stream := uint64(cycle)<<8 | uint64(conn)
	g := &generator{
		w:    w,
		seed: seed,
		conn: uint64(conn),
		rng:  rand.New(rand.NewPCG(seed, stream)),
	}
	if w.theta > 0 {
		g.zipf = trace.NewZipfian(int64(mix(seed^mix(stream+1))>>1), w.records, w.theta)
	}
	return g
}

// pick draws a preloaded record index.
func (g *generator) pick() uint64 {
	if g.zipf != nil {
		return g.zipf.Next()
	}
	return g.rng.Uint64N(g.w.records)
}

// freshIdx is the index of this connection's n-th fresh insert.
func (g *generator) freshIdx(n uint64) uint64 {
	return g.w.records + n*conns + g.conn
}

// next draws one op of the given direction.
func (g *generator) next(read bool) op {
	if read {
		if g.w.negFrac > 0 && g.rng.Float64() < g.w.negFrac {
			idx := negBase + g.rng.Uint64N(negBase)
			return op{req: wire.Request{Op: wire.OpGet, Key: keyOf(g.seed, idx)}, idx: idx}
		}
		idx := g.pick()
		return op{req: wire.Request{Op: wire.OpGet, Key: keyOf(g.seed, idx)}, idx: idx}
	}
	g.writes++
	val := (g.conn+1)<<writerShift | g.writes
	if g.w.insertFrac > 0 && g.rng.Float64() < g.w.insertFrac {
		idx := g.freshIdx(g.fresh)
		g.fresh++
		return op{req: wire.Request{Op: wire.OpInsert, Key: keyOf(g.seed, idx), Value: val}, idx: idx}
	}
	// An owned record: round the draw down to this connection's stride.
	// records is a multiple of conns, so the result stays preloaded.
	r := g.pick()
	idx := r - r%conns + g.conn
	return op{req: wire.Request{Op: wire.OpPut, Key: keyOf(g.seed, idx), Value: val}, idx: idx}
}

// fill replaces f's ops with the next frame: all reads or all writes,
// so reads never wait on a write's fsync inside one frame.
func (g *generator) fill(f *frame) {
	f.write = g.rng.Float64() >= g.w.readFrac
	f.ops = f.ops[:0]
	for i := 0; i < g.w.frameOps; i++ {
		f.ops = append(f.ops, g.next(!f.write))
	}
}

// single draws the next open-loop op.
func (g *generator) single() op {
	return g.next(g.rng.Float64() < g.w.readFrac)
}
