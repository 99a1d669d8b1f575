// Command perfbench is the repository's end-to-end benchmark. One run
// builds the flagship serving stack in-process from its public
// packages — engine.New/engine.Load, an oplog with ghserver's default
// flush policy, server.New — drives one workload over loopback TCP,
// crashes the server, recovers, audits durability, and prints the
// metrics BENCHMARK.json names. Run it from the repository root:
//
//	bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// tracing. With --trace 1 the timed phase alternates untraced and
// traced slices (whole cycles on a workload with a frame budget): a
// timing wrapper around the engine times the server's calls into it,
// the program's exported counters are read at every slice boundary,
// and the run prints the per-layer metrics,
// the tracing overhead and the share of write latency the layers
// account for. The kept spans are written to
// <workdir>/spans-<workload>-<seed>.jsonl.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose durability audit
// fails prints the violations instead and exits 1. The benchmark runs
// on Linux only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"grouphash"
	"grouphash/internal/engine"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
	"grouphash/internal/wire"
)

// flushPolicy is ghserver's default oplog configuration: adaptive group
// commit with a 100 µs window closed early at 64 KiB, and 4 MiB
// preallocated segments.
var flushPolicy = oplog.Config{
	SyncEvery:     100 * time.Microsecond,
	SyncBytes:     64 << 10,
	PreallocBytes: 4 << 20,
}

// cycles is how many rounds of setup, timed phase, crash and recovery
// one run makes; a workload with a budget makes more, up to maxCycles,
// until the run has lasted its seconds. recoveries is how many times
// each round recovers from the crashed files (recovery only reads
// them). setup_s is the median of the setups and recovery_s the
// fastest of the recoveries, which all do the same work.
const (
	cycles     = 4
	maxCycles  = 24
	recoveries = 4
)

// keyValueBytes is the user data one write carries: an 8-byte key and
// an 8-byte value.
const keyValueBytes = 16

// preloadFrameOps is the preload's OpBatch frame size, and
// preloadInflight the frames each connection keeps in flight: 64K ops
// in flight across the connections keep the preload, and with it
// setup_s, bound by the CPUs rather than the host disk's fsync latency.
const (
	preloadFrameOps = 1024
	preloadInflight = 32
)

func main() {
	var (
		wname   = flag.String("workload", "", "workload name: read-zipf, write-grow or mixed-open")
		seed    = flag.Uint64("seed", 1, "seed of the generated keys and op sequence")
		seconds = flag.Int("seconds", 10, "seconds to measure: the timed phases, or the whole run of a workload with a frame budget")
		traceOn = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch files and span ledgers")
	)
	flag.Parse()
	w, err := findWorkload(*wname)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err == nil && *traceOn != 0 && *traceOn != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, *seed, *seconds, *traceOn == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

// stack is one generation-2 serving stack: an engine reopened from the
// preload image, its oplog and its server.
type stack struct {
	spec      engine.Spec
	dir       string
	img, base string
	eng       engine.Engine // the real engine, unwrapped
	lg        *oplog.Log
	srv       *server.Server
	serveDone chan error
	addr      string
	books     []*book
	gen1Bytes float64 // oplog record bytes the preload wrote
}

func serve(eng engine.Engine, img string, lg *oplog.Log) (*server.Server, chan error, string, error) {
	srv, err := server.New(server.Config{Engine: eng, SnapshotPath: img, Oplog: lg})
	if err != nil {
		return nil, nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	// A Drain or Abort that lands before Serve has registered its
	// listener leaves Serve accepting forever, so wait for it.
	for start := time.Now(); !srv.Ready(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			return nil, nil, "", fmt.Errorf("server did not start serving within 5s")
		}
	}
	return srv, done, ln.Addr().String(), nil
}

// tracing bundles a traced run's recorder and switch; the zero value
// runs untraced with no wrapper at all.
type tracing struct {
	rec *recorder
	on  *atomic.Bool
}

func (t tracing) wrap(e engine.Engine) engine.Engine {
	if t.rec == nil {
		return e
	}
	return newTracedEngine(e, t.rec, t.on)
}

// set turns timing on or off; a no-op in an untraced run.
func (t tracing) set(on bool) {
	if t.on != nil {
		t.on.Store(on)
	}
}

func (t tracing) load(spec engine.Spec, path string) (engine.Engine, uint64, error) {
	start := time.Now()
	eng, mark, err := engine.Load(spec, path)
	if t.rec != nil && err == nil {
		id, keep := t.rec.keepRoot(spanLoad)
		t.rec.record(spanLoad, 0, id, start, time.Now(), 1, 0, keep)
	}
	return eng, mark, err
}

// setup builds a stack in dir: generation 1 preloads the records
// through a server on a fresh engine and drains it, which writes the
// image; generation 2 reopens the image, replays the oplog and serves.
func setup(w *workload, seed uint64, dir string, tr tracing) (*stack, error) {
	st := &stack{
		spec: engine.Spec{Name: "grouphash", Capacity: w.capacity},
		dir:  dir,
		img:  filepath.Join(dir, "store.pmfs"),
		base: filepath.Join(dir, "oplog"),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	eng, err := engine.New(st.spec)
	if err != nil {
		return nil, err
	}
	lg, err := oplog.OpenConfig(st.base, 1, flushPolicy)
	if err != nil {
		return nil, err
	}
	srv, done, addr, err := serve(tr.wrap(eng), st.img, lg)
	if err != nil {
		return nil, err
	}
	for c := 0; c < conns; c++ {
		st.books = append(st.books, newBook(c))
	}
	// The preload is not timed: only the snapshot, load and replay of
	// setup feed the per-layer metrics.
	tr.set(false)
	perr := preload(addr, w, seed, st.books)
	tr.set(true)
	if err := errors.Join(perr, srv.Drain(), <-done); err != nil {
		return nil, fmt.Errorf("generation 1: %w", err)
	}
	prom, err := promSamples(srv.Registry())
	if err != nil {
		return nil, err
	}
	st.gen1Bytes = prom["gh_oplog_bytes_written_total"]
	// Generation 1's engine is garbage now, as it would be in a
	// restarted server process: collect it before generation 2 loads,
	// so that when the collector happens to run does not move the peak
	// RSS.
	runtime.GC()

	eng2, mark, err := tr.load(st.spec, st.img)
	if err != nil {
		return nil, err
	}
	served := tr.wrap(eng2)
	_, next, err := served.ReplayOplog(st.base, mark)
	if err != nil {
		return nil, err
	}
	if st.lg, err = oplog.OpenConfig(st.base, next, flushPolicy); err != nil {
		return nil, err
	}
	st.eng = eng2
	st.srv, st.serveDone, st.addr, err = serve(served, st.img, st.lg)
	return st, err
}

// crash stops the stack's server as kill -9 would: nothing is flushed
// or snapshotted, and the oplog is left as the crash finds it.
func (st *stack) crash() error {
	st.srv.Abort()
	err := <-st.serveDone
	st.lg.Abort()
	return err
}

// preload inserts every record through the server, each connection its
// own records, and books the acked values.
func preload(addr string, w *workload, seed uint64, books []*book) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := dial(addr, w, nil, books[c], nil)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.nc.Close()
			next := uint64(c)
			fill := func(f *frame) bool {
				f.write = true
				f.ops = f.ops[:0]
				for ; len(f.ops) < preloadFrameOps && next < w.records; next += conns {
					f.ops = append(f.ops, op{req: wire.Request{Op: wire.OpInsert, Key: keyOf(seed, next), Value: preloadValue(next)}, idx: next})
				}
				return len(f.ops) > 0
			}
			errs[c] = cl.pipeline(preloadInflight, time.Now().Add(60*time.Second), nil, fill)
			switch {
			case errs[c] != nil:
			case cl.fails.total() > 0 || cl.wrong > 0:
				errs[c] = fmt.Errorf("preload: %d ops failed (%+v), %d wrong", cl.fails.total(), cl.fails, cl.wrong)
			case next < w.records:
				errs[c] = fmt.Errorf("preload: connection %d stopped at record %d of %d", c, next, w.records)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phase is what the timed phase observed.
type phase struct {
	clients    []*client
	modes      [2]sample        // server and recorder deltas summed per tracing mode
	modeDur    [2]time.Duration // time spent in each mode
	whole      sample           // deltas over the whole phase
	elapsed    time.Duration    // from the start to the last answer
	cycles     int              // cycles summed into the phase
	cpuAt      []float64        // process CPU seconds at each full window's boundaries
	loadFactor float64
}

// probe reads the program's exported counters and the recorder.
func (st *stack) probe(rec *recorder) (sample, error) {
	s := newSample()
	s.at = time.Now()
	m := st.srv.Stats()
	s.scalars["server.ops"] = float64(m.Reads + m.Writes + m.Deletes + m.Others)
	s.scalars["server.bytes"] = float64(m.BytesRead + m.BytesWritten)
	s.hists["server.latency"] = st.srv.Latency()
	s.hists["server.ack"] = st.srv.AckLatency()
	s.hists["oplog.sync"] = st.lg.SyncLatency()
	s.scalars["oplog.appends"] = float64(st.lg.Appends())
	s.scalars["oplog.fsyncs"] = float64(st.lg.Fsyncs())
	s.scalars["oplog.last_lsn"] = float64(st.lg.LastLSN())
	prom, err := promSamples(st.srv.Registry())
	if err != nil {
		return s, err
	}
	s.scalars["server.coalesced_sum"] = prom[`gh_server_batch_size_sum{source="coalesced"}`]
	s.scalars["server.coalesced_runs"] = prom[`gh_server_batch_size_count{source="coalesced"}`]
	if gs, ok := st.eng.(*grouphash.Store); ok {
		hits, skips := gs.FingerprintStats()
		s.scalars["store.fp_hits"] = float64(hits)
		s.scalars["store.fp_skips"] = float64(skips)
		s.scalars["store.stall_ns"] = float64(gs.ExpansionStallNanos())
	}
	s.scalars["store.expansions"] = float64(st.eng.Expansions())
	_, cpu, err := rusage()
	if err != nil {
		return s, err
	}
	s.scalars["process.cpu_s"] = cpu
	readRuntime(s)
	if rec != nil {
		for i, l := range rec.snapshot() {
			n := spanNames[i]
			s.scalars[n+".calls"] = float64(l.calls)
			s.scalars[n+".units"] = float64(l.units)
			s.scalars[n+".ns"] = float64(l.ns)
			s.scalars[n+".self_ns"] = float64(l.selfNs)
			s.hists[n] = l.hist
		}
	}
	return s, nil
}

// sleepUntil sleeps to t with the runtime timer's precision, which is
// enough for the start of a phase.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// traceSlice is the length of the alternating untraced and traced
// slices of a traced run's timed phase.
const traceSlice = time.Second / 2

// budgetTimeout bounds a budgeted cycle on a machine too slow to finish
// its budget, forty times the budget's time here; the cycle then ends
// with the frames sent so far.
const budgetTimeout = 20 * time.Second

// timed drives the workload against st: for dur, or until each
// connection has sent the workload's budget of frames. In a traced run
// a timed phase alternates untraced and traced slices, starting
// untraced, so the two modes see the same table growth. A budgeted
// cycle can end inside its first slice, which would leave the traced
// mode empty, so a traced budgeted run alternates whole cycles
// instead: odd cycles are traced, and each mode sees the same growth.
func timed(st *stack, w *workload, seed uint64, cycle int, dur time.Duration, tr tracing) (*phase, error) {
	ph := &phase{modes: [2]sample{newSample(), newSample()}}
	for c := 0; c < conns; c++ {
		cl, err := dial(st.addr, w, newGenerator(w, seed, cycle, c), st.books[c], tr.rec)
		if err != nil {
			return nil, err
		}
		ph.clients = append(ph.clients, cl)
	}
	on := tr.on
	if on == nil {
		on = new(atomic.Bool)
	}
	slicing := tr.rec != nil && w.budget == 0
	mode := 0
	if tr.rec != nil && w.budget > 0 {
		mode = cycle % 2
	}
	on.Store(mode == 1)
	start := time.Now().Add(20 * time.Millisecond)
	for _, cl := range ph.clients {
		cl.epoch = start
	}
	deadline := start.Add(dur)
	if w.budget > 0 {
		deadline = start.Add(budgetTimeout)
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c, cl := range ph.clients {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			if w.rate > 0 {
				interval := time.Duration(float64(conns) / w.rate * 1e9)
				errs[c] = cl.openLoop(start, deadline, interval, interval*time.Duration(c)/conns, on)
				return
			}
			sleepUntil(start)
			sent := 0
			errs[c] = cl.pipeline(w.inflight, deadline, on, func(f *frame) bool {
				if w.budget > 0 && sent == w.budget {
					return false
				}
				sent++
				cl.gen.fill(f)
				return true
			})
		}(c, cl)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	sleepUntil(start)
	first, err := st.probe(tr.rec)
	if err != nil {
		return nil, err
	}
	// The phase is probed at every boundary of its windows (traced
	// slices in a traced run) and when the last answer is in.
	tick := window
	if slicing {
		tick = traceSlice
	}
	prev := first
	ph.cpuAt = []float64{first.scalars["process.cpu_s"]}
	for k := 1; ; k++ {
		finished := false
		select {
		case <-done:
			finished = true
			ph.elapsed = time.Since(start)
		case <-time.After(time.Until(start.Add(time.Duration(k) * tick))):
		}
		cur, err := st.probe(tr.rec)
		if err != nil {
			return nil, err
		}
		if slicing && !finished {
			on.Store(mode == 0)
		}
		ph.modes[mode].add(cur.sub(prev))
		ph.modeDur[mode] += cur.at.Sub(prev.at)
		prev = cur
		if finished {
			break
		}
		ph.cpuAt = append(ph.cpuAt, cur.scalars["process.cpu_s"])
		if slicing {
			mode = 1 - mode
		}
	}
	for _, cl := range ph.clients {
		cl.nc.Close()
	}
	ph.whole = prev.sub(first)
	ph.loadFactor = st.eng.LoadFactor()
	return ph, errors.Join(errs...)
}

// run performs one benchmark run: rounds of setup, a timed phase (a
// slice of seconds/cycles, or the workload's budget), crash, recovery
// and audit. Spreading the
// setups and recoveries over the run, instead of bunching them at its
// ends, lets their medians ride out the seconds-long slow spells of a
// shared machine.
// cycleStats collects the figures a run reports over its cycles: one
// per cycle, one per recovery for recovery, and for cpuPerOp of a
// timed workload one per 1-s window. kops is kept for budgeted cycles
// only; a timed workload's throughput comes from its windows.
type cycleStats struct {
	setup, recovery, kops, cpuPerOp, disk, loadFactor []float64
	timed                                             time.Duration // the timed phases' total
}

func run(w *workload, seed uint64, seconds int, traced bool, workdir string) (*report, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prov, err := newProvenance(w, seed, seconds, traced, dir)
	if err != nil {
		return nil, err
	}
	var tr tracing
	if traced {
		tr = tracing{rec: newRecorder(), on: new(atomic.Bool)}
		tr.on.Store(true)
	}
	rep := newReport(prov, traced)
	slice := time.Duration(seconds) * time.Second / cycles
	var (
		cs       cycleStats
		modes    [2]tally
		agg      = &phase{modes: [2]sample{newSample(), newSample()}, whole: newSample()}
		recovery = newSample()
		timedFor time.Duration
	)
	runStart := time.Now()
	more := func(c int) bool {
		return c < cycles || w.budget > 0 && c < maxCycles && time.Since(runStart) < time.Duration(seconds)*time.Second
	}
	for c := 0; more(c); c++ {
		runtime.GC()
		start := time.Now()
		st, err := setup(w, seed, filepath.Join(dir, fmt.Sprint("cycle", c)), tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		cs.setup = append(cs.setup, time.Since(start).Seconds())
		ph, err := timed(st, w, seed, c, slice, tr)
		if err != nil {
			return nil, fmt.Errorf("timed phase: %w", err)
		}
		if err := st.crash(); err != nil {
			return nil, fmt.Errorf("crash: %w", err)
		}
		img, err := os.Stat(st.img)
		if err != nil {
			return nil, err
		}
		gen2, err := promSamples(st.srv.Registry())
		if err != nil {
			return nil, err
		}

		// Recovery: reopen the image and replay the oplog the crash
		// left, then audit the result against the clients' books.
		st.eng, st.srv = nil, nil
		tr.set(true)
		var before [numSpanNames]layerSnap
		if traced {
			before = tr.rec.snapshot()
		}
		var eng engine.Engine
		for i := 0; i < recoveries; i++ {
			eng = nil
			runtime.GC()
			start = time.Now()
			var mark uint64
			if eng, mark, err = tr.load(st.spec, st.img); err != nil {
				return nil, fmt.Errorf("recovery: %w", err)
			}
			if _, _, err := tr.wrap(eng).ReplayOplog(st.base, mark); err != nil {
				return nil, fmt.Errorf("recovery: %w", err)
			}
			cs.recovery = append(cs.recovery, time.Since(start).Seconds())
		}
		if traced {
			for i, l := range tr.rec.snapshot() {
				recovery.scalars[spanNames[i]+".ns"] += float64(l.ns - before[i].ns)
				recovery.scalars[spanNames[i]+".units"] += float64(l.units - before[i].units)
			}
		}
		if err := audit(eng, seed, st.books); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}

		// Frames are placed on the run's time line: a timed cycle at its
		// slice, a budgeted one after the cycles before it.
		offset := int64(c) * int64(slice)
		if w.budget > 0 {
			offset = int64(timedFor)
		}
		timedFor += ph.elapsed
		var acked, writes uint64
		var frames []frameRec
		for _, cl := range ph.clients {
			for m := range cl.modes {
				t := &cl.modes[m]
				acked += t.acked
				writes += t.writes
				frames = append(frames, t.frames...)
				for i := range t.frames {
					t.frames[i].at += offset
				}
				modes[m].merge(t)
			}
			rep.attempted += cl.attempted
			rep.fails.add(cl.fails)
			if cl.wrong > 0 {
				rep.correct = false
				rep.notes = append(rep.notes, fmt.Sprintf("%d wrong reads, first: %s", cl.wrong, cl.firstWrong))
			}
		}
		disk := st.gen1Bytes + float64(img.Size()) + gen2["gh_oplog_bytes_written_total"]
		cs.disk = append(cs.disk, disk/float64(keyValueBytes*(w.records+writes)))
		if w.budget > 0 {
			cs.kops = append(cs.kops, float64(acked)/ph.elapsed.Seconds()/1e3)
			cs.cpuPerOp = append(cs.cpuPerOp, ph.whole.scalars["process.cpu_s"]*1e6/float64(acked))
		} else if !traced {
			cs.cpuPerOp = append(cs.cpuPerOp, cpuPerOp(frames, ph.cpuAt)...)
		}
		for m := range agg.modes {
			agg.modes[m].add(ph.modes[m])
			agg.modeDur[m] += ph.modeDur[m]
		}
		agg.whole.add(ph.whole)
		agg.cycles++
		cs.loadFactor = append(cs.loadFactor, ph.loadFactor)
		if err := os.RemoveAll(st.dir); err != nil {
			return nil, err
		}
	}
	rss, _, err := rusage()
	if err != nil {
		return nil, err
	}
	prov.CPUCalibrationEnd = cpuCalibration()
	prov.MemLatencyEnd = memLatency()
	rep.prov = prov
	var all tally
	all.merge(&modes[0])
	all.merge(&modes[1])
	if all.acked+rep.fails.total() != rep.attempted {
		return nil, fmt.Errorf("accounting: %d ops attempted but %d acked and %d failed", rep.attempted, all.acked, rep.fails.total())
	}
	if !traced {
		cs.timed = timedFor
		rep.endToEnd(w, &all, seconds, &cs, rss)
		return rep, nil
	}
	agg.loadFactor = median(cs.loadFactor)
	rep.perLayer(agg, modes, tr.rec.snapshot(), recovery)
	ledger := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := tr.rec.writeLedger(ledger); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("span ledger: %s (%d spans kept, %d dropped)", ledger, len(tr.rec.spans), tr.rec.dropped.Load()))
	return rep, nil
}
