package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/wire"
)

func newSmallEngine(t *testing.T) engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Spec{Name: "grouphash", Capacity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The timing wrapper must be invisible: every result, every commit
// callback index, snapshots and replay come out exactly as from the
// bare engine, traced or not.
func TestTracedEnginePassesThrough(t *testing.T) {
	for _, traced := range []bool{true, false} {
		on := new(atomic.Bool)
		on.Store(traced)
		rec := newRecorder()
		plain, wrapped := newSmallEngine(t), engine.Engine(newTracedEngine(newSmallEngine(t), rec, on))

		key := func(i int) layout.Key { return keyOf(7, uint64(i)) }
		var ops []core.BatchOp
		for i := 0; i < 300; i++ {
			kind := core.BatchPut
			switch i % 5 {
			case 3:
				kind = core.BatchInsert
			case 4:
				kind = core.BatchDelete
			}
			ops = append(ops, core.BatchOp{Kind: kind, Key: key(i % 97), Value: uint64(i)})
		}
		ops = append(ops, core.BatchOp{Kind: core.BatchPut, Key: layout.Key{}, Value: 1}) // invalid key
		apply := func(e engine.Engine) ([]core.BatchResult, [][]int) {
			out := make([]core.BatchResult, len(ops))
			var calls [][]int
			e.ApplyBatch(ops, out, nil, func(applied []int) { calls = append(calls, slices.Clone(applied)) })
			return out, calls
		}
		out1, calls1 := apply(plain)
		out2, calls2 := apply(wrapped)
		if !reflect.DeepEqual(out1, out2) || !reflect.DeepEqual(calls1, calls2) {
			t.Fatalf("traced=%v: ApplyBatch differs through the wrapper", traced)
		}
		for _, e := range []engine.Engine{plain, wrapped} {
			if err := e.Put(key(500), 5); err != nil {
				t.Fatal(err)
			}
			if ok := e.Delete(key(1)); !ok {
				t.Fatal("Delete of a present key reported absent")
			}
		}
		keys := []layout.Key{key(0), key(1), key(2), key(500), key(9999)}
		for _, k := range keys {
			v1, ok1 := plain.Get(k)
			v2, ok2 := wrapped.Get(k)
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("traced=%v: Get(%v) = %d,%v plain vs %d,%v wrapped", traced, k, v1, ok1, v2, ok2)
			}
		}
		v1, f1 := make([]uint64, len(keys)), make([]bool, len(keys))
		v2, f2 := make([]uint64, len(keys)), make([]bool, len(keys))
		plain.MGet(keys, v1, f1)
		wrapped.MGet(keys, v2, f2)
		if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(f1, f2) {
			t.Fatalf("traced=%v: MGet differs through the wrapper", traced)
		}
		if plain.Len() != wrapped.Len() || len(wrapped.CheckConsistency()) != 0 {
			t.Fatalf("traced=%v: Len %d vs %d, consistency %v", traced, plain.Len(), wrapped.Len(), wrapped.CheckConsistency())
		}

		dir := t.TempDir()
		img := filepath.Join(dir, "img")
		write, err := wrapped.SnapshotWriterAt(func() (uint64, error) { return 42, nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := write(img); err != nil {
			t.Fatal(err)
		}
		base := filepath.Join(dir, "oplog")
		lg, err := oplog.Open(base, 43)
		if err != nil {
			t.Fatal(err)
		}
		lg.Append(oplog.OpPut, key(600), 6)
		lg.Append(oplog.OpDelete, key(2), 0)
		if err := firstErr(lg.Sync(lg.LastLSN()), lg.Close()); err != nil {
			t.Fatal(err)
		}
		loaded, mark, err := engine.Load(engine.Spec{Name: "grouphash", Capacity: 1 << 10}, img)
		if err != nil || mark != 42 {
			t.Fatalf("Load: mark %d, %v", mark, err)
		}
		n1, next1, err1 := loaded.ReplayOplog(base, mark)
		reloaded, _, err := engine.Load(engine.Spec{Name: "grouphash", Capacity: 1 << 10}, img)
		if err != nil {
			t.Fatal(err)
		}
		n2, next2, err2 := newTracedEngine(reloaded, rec, on).ReplayOplog(base, mark)
		if n1 != n2 || next1 != next2 || err1 != nil || err2 != nil || n1 != 2 {
			t.Fatalf("traced=%v: ReplayOplog %d,%d,%v plain vs %d,%d,%v wrapped", traced, n1, next1, err1, n2, next2, err2)
		}
		if loaded.Len() != reloaded.Len() {
			t.Fatalf("traced=%v: replayed Len %d vs %d", traced, loaded.Len(), reloaded.Len())
		}
		layers := rec.snapshot()
		calls := layers[spanApply].calls
		if traced != (calls == 1) {
			t.Fatalf("traced=%v: recorder counted %d ApplyBatch calls", traced, calls)
		}
		if traced && layers[spanCommit].units != uint64(len(flatten(calls1))) {
			t.Fatalf("commit spans counted %d records, want %d", layers[spanCommit].units, len(flatten(calls1)))
		}
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func flatten(xs [][]int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want uint64 }{
		{0, 0}, {19, 0}, {20, p50}, {99, p50}, {100, 900_000}, {999, 900_000},
		{1000, p99}, {9999, p99}, {10_000, 999_000}, {100_000, 999_900}, {1_000_000, 999_990},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if q := tailPercentile(c.n); q > 0 && c.n-rank(c.n, q) < 10 {
			t.Errorf("n=%d: percentile %d leaves %d samples beyond it", c.n, q, c.n-rank(c.n, q))
		}
	}
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got := percentile(xs, p99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := percentile(xs, supported(1000, 999_000)); got != 990 {
		t.Errorf("p99.9 of 1000 samples should fall back to p99 = 990, got %d", got)
	}
	if got := percentile(xs[:50], supported(50, p99)); got != 25 {
		t.Errorf("50 samples support only the median (25), got %d", got)
	}
}

// fakeServer answers every single-op request StatusOK, but only after
// stalling for stall from its first read.
func fakeServer(t *testing.T, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		first := true
		for {
			if _, err := wire.ReadRequest(nc); err != nil {
				return
			}
			if first {
				time.Sleep(stall)
				first = false
			}
			if err := wire.WriteResponse(nc, wire.Response{Status: wire.StatusOK}); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// Open-loop latency runs from each op's due time, so it includes both a
// server stall and the generator's own lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 30 * time.Millisecond
	w := &workload{name: "test", records: 64, capacity: 64, rate: 1000, readFrac: 0}
	cl, err := dial(fakeServer(t, stall), w, newGenerator(w, 1, 0, 0), newBook(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.nc.Close()
	// Start 10 ms in the past: the first ten ops leave late.
	start := time.Now().Add(-10 * time.Millisecond)
	if err := cl.openLoop(start, start.Add(30*time.Millisecond), time.Millisecond, 0, nil); err != nil {
		t.Fatal(err)
	}
	lat, late := cl.modes[0].lats(true), cl.modes[0].late
	if len(lat) != 30 || cl.fails.total() != 0 {
		t.Fatalf("%d ops answered, %d failed; want 30, 0", len(lat), cl.fails.total())
	}
	if lat[0] < int64(10*time.Millisecond+stall) {
		t.Errorf("op 0 was due 10ms before it left and then waited out a %v stall, but latency is %v", stall, time.Duration(lat[0]))
	}
	if late[0] < int64(9*time.Millisecond) {
		t.Errorf("op 0 left %v late, want at least 9ms", time.Duration(late[0]))
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] > lat[i-1]+int64(time.Millisecond) && i < 20 {
			t.Errorf("op %d (due 1ms after op %d) reports %v, more than op %d's %v: stall not counted from due", i, i-1, time.Duration(lat[i]), i-1, time.Duration(lat[i-1]))
		}
	}
}

// The same seed gives the same op sequence; another seed another one.
func TestGeneratorDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		draw := func(seed uint64, conn int) []op {
			g := newGenerator(w, seed, 0, conn)
			var ops []op
			var f frame
			for j := 0; j < 50; j++ {
				if w.frameOps == 0 {
					ops = append(ops, g.single())
					continue
				}
				g.fill(&f)
				ops = append(ops, f.ops...)
			}
			return ops
		}
		a, b, c := draw(3, 1), draw(3, 1), draw(4, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 gave two different sequences", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same sequence", w.name)
		}
		for _, o := range a {
			if o.req.Op != wire.OpGet && o.idx%conns != 1 {
				t.Fatalf("%s: connection 1 wrote record %d, which it does not own", w.name, o.idx)
			}
		}
	}
}

// write-grow's budget makes the table double exactly twice per cycle
// whatever the seed: the preload stays below the first expansion
// threshold (3/4 of the cells, two cells per item of capacity) and the
// budget's fresh inserts pass the second but not the third.
func TestWriteGrowDoublesTwice(t *testing.T) {
	w, err := findWorkload("write-grow")
	if err != nil {
		t.Fatal(err)
	}
	threshold := func(k uint) uint64 { return 2 * w.capacity * 3 / 4 << k }
	if w.records >= threshold(0) {
		t.Fatalf("preload of %d records already reaches the first threshold %d", w.records, threshold(0))
	}
	for seed := uint64(1); seed <= 5; seed++ {
		items := w.records
		for c := 0; c < conns; c++ {
			g := newGenerator(w, seed, 0, c)
			var f frame
			for i := 0; i < w.budget; i++ {
				g.fill(&f)
			}
			items += g.fresh
		}
		if items <= threshold(1) || items >= threshold(2) {
			t.Errorf("seed %d: a cycle ends with %d items, want between %d and %d", seed, items, threshold(1), threshold(2))
		}
	}
}

// A traced run of a budgeted workload whose cycles end well inside one
// trace slice still measures both modes, and every per-layer metric
// comes out.
func TestTracedBudgetedRunMeasuresBothModes(t *testing.T) {
	w := &workload{name: "tiny-budget", records: 1 << 11, capacity: 1 << 12,
		frameOps: 64, inflight: 4, budget: 8, readFrac: 0.05, insertFrac: 0.5}
	rep, err := run(w, 3, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tracing.untraced_kops", "tracing.traced_kops"} {
		if m, ok := rep.metrics[name]; !ok || m.value <= 0 || m.samples == 0 {
			t.Errorf("%s = %+v, want a positive figure over some acked ops", name, m)
		}
	}
	rep.print(io.Discard)
	if !rep.correct {
		t.Errorf("run was not correct: %v", rep.notes)
	}
}

// The audit must catch a lost acked write, a stale value and a key that
// was never acked.
func TestAuditCatchesViolations(t *testing.T) {
	const seed = 5
	build := func() (engine.Engine, []*book) {
		e := newSmallEngine(t)
		books := []*book{newBook(0), newBook(1)}
		for idx := uint64(0); idx < 100; idx++ {
			if err := e.Put(keyOf(seed, idx), preloadValue(idx)); err != nil {
				t.Fatal(err)
			}
			books[idx%conns].set(idx, preloadValue(idx))
		}
		return e, books
	}
	e, books := build()
	if err := audit(e, seed, books); err != nil {
		t.Fatalf("clean engine failed the audit: %v", err)
	}
	e, books = build()
	e.Delete(keyOf(seed, 10))
	if audit(e, seed, books) == nil {
		t.Error("audit missed a lost acked write")
	}
	e, books = build()
	e.Put(keyOf(seed, 11), 12345)
	if audit(e, seed, books) == nil {
		t.Error("audit missed a stale value")
	}
	e, books = build()
	e.Put(keyOf(seed, 100), 1)
	if audit(e, seed, books) == nil {
		t.Error("audit missed a never-acked key")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every metric name uses only [A-Za-z0-9_.-], is used once, and matches
// BENCHMARK.json, as do the workload names.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEndMetrics), perLayerMetrics...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("bad or duplicate metric %q (unit %q)", d.name, d.unit)
		}
		seen[d.name] = true
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the benchmark %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndMetrics)
	check("per_layer", bench.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
}
