package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics lists what a user of the server sees, measured
// untraced. Client latency percentiles are not among them: on a shared
// 2-CPU machine they follow the host disk's fsync latency and the
// commit window's timer, and swing 2-10x from run to run, past any
// regression bound; they are reported per layer instead.
var endToEndMetrics = []metricDef{
	{"throughput_kops", "kops/s"},       // acked ops per second; an open loop's is its offered rate
	{"cpu_us_per_op", "us"},             // process CPU time, client and server, per acked op
	{"setup_s", "s"},                    // preload, drain and image write, reload and replay
	{"recovery_s", "s"},                 // engine.Load plus ReplayOplog after the crash
	{"peak_rss_mb", "MB"},               // resident-set high-water mark of the whole run
	{"disk_bytes_per_user_byte", "B/B"}, // oplog and image bytes written per key and value byte
}

// perLayerMetrics lists the traced run's metrics, one group per module.
var perLayerMetrics = []metricDef{
	{"client.read_p50_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p99_us", "us"},
	{"server.apply_p50_us", "us"},
	{"server.apply_p99_us", "us"},
	{"server.ack_p50_us", "us"},
	{"server.ack_p99_us", "us"},
	{"server.commit_wait_us", "us"},
	{"server.wire_overhead_us", "us"},
	{"server.coalesced_per_run", "count"},
	{"server.bytes_per_op", "B/op"},
	{"engine.lookup_ns_per_key", "ns"},
	{"engine.fp_skip_frac", "frac"},
	{"engine.busy_frac", "frac"},
	{"engine.apply_self_ns_per_op", "ns"},
	{"engine.apply_ops_per_call", "count"},
	{"engine.expansions", "count"},
	{"engine.expansion_stall_frac", "frac"},
	{"engine.load_factor_end", "frac"},
	{"oplog.stage_ns_per_record", "ns"},
	{"oplog.records_per_append", "count"},
	{"oplog.records_per_fsync", "count"},
	{"oplog.fsync_p50_us", "us"},
	{"oplog.fsync_p99_us", "us"},
	{"oplog.replay_ns_per_record", "ns"},
	{"pmfs.load_ms", "ms"},
	{"pmfs.snapshot_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.failed_frac", "frac"},
	{"tracing.untraced_kops", "kops/s"},
	{"tracing.traced_kops", "kops/s"},
	{"tracing.overhead_ratio", "ratio"},
	{"tracing.write_coverage_frac", "frac"},
}

type metric struct {
	value   float64
	unit    string
	samples uint64
}

// report is one run's result.
type report struct {
	prov      provenance
	defs      []metricDef
	metrics   map[string]metric
	correct   bool
	attempted uint64
	fails     failures
	notes     []string
}

func newReport(prov provenance, traced bool) *report {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	return &report{prov: prov, defs: defs, metrics: map[string]metric{}, correct: true}
}

func (r *report) set(name string, v float64, samples uint64) {
	i := slices.IndexFunc(r.defs, func(d metricDef) bool { return d.name == name })
	if i < 0 {
		panic("perfbench: metric " + name + " is not defined for this run")
	}
	r.metrics[name] = metric{value: v, unit: r.defs[i].unit, samples: samples}
}

// div is a/b, or 0 when b is 0, so no metric is ever NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func mean(xs []int64) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return div(sum, float64(len(xs)))
}

// window is the slice of the timed phase throughput is counted over;
// throughput_kops is the median over the windows, so a burst of
// contention from outside the benchmark moves one window, not the
// result.
const window = time.Second

// windowStats splits the frames answered during the first n windows and
// returns, per window, the ack rate in kops/s and, per direction
// (index 0 reads, 1 writes), the p50 and the p99 — or the highest
// percentile the window's frames support — in µs. Windows with too few
// frames of a direction to support a median are left out of its series.
func windowStats(frames []frameRec, n int) (rates []float64, p50s, p99s [2][]float64) {
	type win struct {
		acked uint64
		lat   [2][]int64
	}
	wins := make([]win, n)
	for _, f := range frames {
		i := f.at / int64(window)
		if f.at < 0 || i >= int64(n) {
			continue
		}
		wins[i].acked += uint64(f.acked)
		wins[i].lat[b2i(f.write)] = append(wins[i].lat[b2i(f.write)], f.lat)
	}
	for _, w := range wins {
		rates = append(rates, float64(w.acked)/window.Seconds()/1e3)
		for d, xs := range w.lat {
			n := uint64(len(xs))
			if tailPercentile(n) == 0 {
				continue
			}
			s := sorted(xs)
			p50s[d] = append(p50s[d], float64(percentile(s, p50))/1e3)
			p99s[d] = append(p99s[d], float64(percentile(s, supported(n, p99)))/1e3)
		}
	}
	return rates, p50s, p99s
}

// cpuPerOp returns, for each full window of one cycle's frames, the
// process CPU time per op acked in it, in µs; cpuAt holds the CPU
// seconds at the windows' boundaries.
func cpuPerOp(frames []frameRec, cpuAt []float64) []float64 {
	rates, _, _ := windowStats(frames, len(cpuAt)-1)
	var out []float64
	for k, r := range rates {
		if r > 0 {
			out = append(out, (cpuAt[k+1]-cpuAt[k])*1e6/(r*1e3*window.Seconds()))
		}
	}
	return out
}

// endToEnd sets the end-to-end metrics. Throughput is the median over
// the 1-second windows of a timed run, or over the cycles of a budgeted
// one, and so is CPU per op; setup time is the median over the cycles,
// and recovery_s the fastest recovery.
func (r *report) endToEnd(w *workload, all *tally, seconds int, cs *cycleStats, rss float64) {
	if w.budget > 0 {
		r.set("throughput_kops", median(cs.kops), all.acked)
		r.notes = append(r.notes, fmt.Sprintf("throughput per cycle of %d frames per connection, kops/s: %.0f", w.budget, cs.kops))
	} else {
		n := max(1, int(time.Duration(seconds)*time.Second/window))
		rates, _, _ := windowStats(all.frames, n)
		r.set("throughput_kops", median(rates), all.acked)
		r.notes = append(r.notes, fmt.Sprintf("throughput per %v window, kops/s: %.0f", window, rates))
	}
	_, p50s, p99s := windowStats(all.frames, int(cs.timed/window)+1)
	for d, dir := range []string{"read", "write"} {
		r.notes = append(r.notes, fmt.Sprintf("%s latency (not bounded): %d frames, median over %d windows of %v: p50 %.1f us, p99 %.1f us",
			dir, len(all.lats(d == 1)), len(p50s[d]), window, median(p50s[d]), median(p99s[d])))
	}
	r.notes = append(r.notes, fmt.Sprintf("cpu per op %.2f us, setup times %.3f s, recovery times %.3f s", cs.cpuPerOp, cs.setup, cs.recovery))
	r.set("cpu_us_per_op", median(cs.cpuPerOp), uint64(len(cs.cpuPerOp)))
	r.set("setup_s", median(cs.setup), uint64(len(cs.setup)))
	r.set("recovery_s", slices.Min(cs.recovery), uint64(len(cs.recovery)))
	r.set("peak_rss_mb", rss/1e6, 1)
	r.set("disk_bytes_per_user_byte", median(cs.disk), uint64(len(cs.disk)))
}

// perLayer derives the per-layer metrics. t is the sum of the traced
// slices, u of the untraced ones; whole covers the timed phase; end is
// the recorder at the end of the run and recovery its deltas over the
// recoveries.
func (r *report) perLayer(ph *phase, modes [2]tally, end [numSpanNames]layerSnap, recovery sample) {
	u, t, whole := ph.modes[0], ph.modes[1], ph.whole
	for d, dir := range []string{"read", "write"} {
		s := sorted(modes[0].lats(d == 1))
		n := uint64(len(s))
		r.set("client."+dir+"_p50_us", float64(percentile(s, p50))/1e3, n)
		r.set("client."+dir+"_p99_us", float64(percentile(s, supported(n, p99)))/1e3, n)
	}
	ts := t.scalars
	sv := func(name string) float64 { return ts[name] }
	layer := func(s spanName, field string) float64 { return ts[spanNames[s]+"."+field] }

	lat, ack := t.hists["server.latency"], t.hists["server.ack"]
	r.set("server.apply_p50_us", histQuantile(lat, p50)/1e3, lat.Count)
	r.set("server.apply_p99_us", histQuantile(lat, p99)/1e3, lat.Count)
	r.set("server.ack_p50_us", histQuantile(ack, p50)/1e3, ack.Count)
	r.set("server.ack_p99_us", histQuantile(ack, p99)/1e3, ack.Count)
	applyCalls := layer(spanApply, "calls")
	applyMean := div(layer(spanApply, "ns"), applyCalls)
	wait := 0.0
	if ack.Count > 0 {
		wait = ack.Mean() - applyMean
	}
	r.set("server.commit_wait_us", wait/1e3, ack.Count)
	frames := sorted(append(modes[1].lats(false), modes[1].lats(true)...))
	r.set("server.wire_overhead_us", (float64(percentile(frames, p50))-histQuantile(lat, p50))/1e3, uint64(len(frames)))
	r.set("server.coalesced_per_run", div(sv("server.coalesced_sum"), sv("server.coalesced_runs")), uint64(sv("server.coalesced_runs")))
	r.set("server.bytes_per_op", div(sv("server.bytes"), sv("server.ops")), uint64(sv("server.ops")))

	// The server answers every get, batch-frame ones too, with one
	// engine.Get per key; MGet is counted in case it ever calls it.
	lookupNs := layer(spanGet, "ns") + layer(spanMGet, "ns")
	keys := layer(spanGet, "units") + layer(spanMGet, "units")
	lookups := layer(spanGet, "calls") + layer(spanMGet, "calls")
	r.set("engine.lookup_ns_per_key", div(lookupNs, keys), uint64(keys))
	hits, skips := sv("store.fp_hits"), sv("store.fp_skips")
	r.set("engine.fp_skip_frac", div(skips, hits+skips), uint64(hits+skips))
	cpuNs := float64(ph.modeDur[1].Nanoseconds()) * float64(runtime.GOMAXPROCS(0))
	r.set("engine.busy_frac", div(lookupNs+layer(spanApply, "ns"), cpuNs), uint64(lookups+applyCalls))
	r.set("engine.apply_self_ns_per_op", div(layer(spanApply, "self_ns"), layer(spanApply, "units")), uint64(layer(spanApply, "units")))
	r.set("engine.apply_ops_per_call", div(layer(spanApply, "units"), applyCalls), uint64(applyCalls))
	r.set("engine.expansions", div(whole.scalars["store.expansions"], float64(ph.cycles)), uint64(ph.cycles))
	phaseNs := float64((ph.modeDur[0] + ph.modeDur[1]).Nanoseconds())
	r.set("engine.expansion_stall_frac", div(whole.scalars["store.stall_ns"], phaseNs*conns), 1)
	r.set("engine.load_factor_end", ph.loadFactor, uint64(ph.cycles))

	records := sv("oplog.last_lsn")
	r.set("oplog.stage_ns_per_record", div(layer(spanCommit, "ns"), layer(spanCommit, "units")), uint64(layer(spanCommit, "units")))
	r.set("oplog.records_per_append", div(records, sv("oplog.appends")), uint64(sv("oplog.appends")))
	r.set("oplog.records_per_fsync", div(records, sv("oplog.fsyncs")), uint64(sv("oplog.fsyncs")))
	sync := t.hists["oplog.sync"]
	r.set("oplog.fsync_p50_us", histQuantile(sync, p50)/1e3, sync.Count)
	r.set("oplog.fsync_p99_us", histQuantile(sync, p99)/1e3, sync.Count)
	replayed := recovery.scalars[spanNames[spanReplay]+".units"]
	r.set("oplog.replay_ns_per_record", div(recovery.scalars[spanNames[spanReplay]+".ns"], replayed), uint64(replayed))

	load, snap := end[spanLoad].hist, end[spanSnapshot].hist
	r.set("pmfs.load_ms", load.Quantile(0.5)/1e6, load.Count)
	r.set("pmfs.snapshot_ms", snap.Quantile(0.5)/1e6, snap.Count)

	r.set("runtime.gc_cpu_frac", div(u.scalars["runtime.gc_cpu_s"], u.scalars["runtime.total_cpu_s"]), 1)
	r.set("runtime.alloc_bytes_per_op", div(u.scalars["runtime.alloc_bytes"], float64(modes[0].acked)), modes[0].acked)

	var late []int64
	late = append(append(late, modes[0].late...), modes[1].late...)
	r.set("loadgen.late_p99_us", float64(percentile(sorted(late), supported(uint64(len(late)), p99)))/1e3, uint64(len(late)))
	r.set("loadgen.failed_frac", div(float64(r.fails.total()), float64(r.attempted)), r.attempted)

	untraced := div(float64(modes[0].acked), ph.modeDur[0].Seconds()) / 1e3
	traced := div(float64(modes[1].acked), ph.modeDur[1].Seconds()) / 1e3
	r.set("tracing.untraced_kops", untraced, modes[0].acked)
	r.set("tracing.traced_kops", traced, modes[1].acked)
	r.set("tracing.overhead_ratio", div(untraced, traced), 2)
	// The server-side write path: engine self time, oplog staging (the
	// commit callback) and the commit-window wait, per acked write
	// frame, against the client-observed mean write frame latency.
	covered := div(layer(spanApply, "self_ns")+layer(spanCommit, "ns"), applyCalls) + wait
	writes := modes[1].lats(true)
	r.set("tracing.write_coverage_frac", div(covered, mean(writes)), uint64(len(writes)))
}

// print writes the human-readable report and, last, the JSON result.
func (r *report) print(w io.Writer) {
	prov, _ := json.Marshal(r.prov)
	fmt.Fprintf(w, "provenance %s\n", prov)
	fails, _ := json.Marshal(r.fails)
	fmt.Fprintf(w, "ops attempted %d, failed %d %s\n", r.attempted, r.fails.total(), fails)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "%-30s %16s %-8s %s\n", "metric", "value", "unit", "samples")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.fails.total(), map[string]jsonMetric{}}
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " was not measured")
		}
		fmt.Fprintf(w, "%-30s %16.4f %-8s %d\n", d.name, m.value, m.unit, m.samples)
		out.Metrics[d.name] = jsonMetric{m.value, m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}
