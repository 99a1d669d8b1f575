package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"grouphash/internal/stats"
)

// Percentiles are written in parts per million so the rank arithmetic
// is exact.
const (
	p50 = 500_000
	p99 = 990_000
)

// ladder lists the percentiles a tail may be reported at.
var ladder = []uint64{p50, 900_000, p99, 999_000, 999_900, 999_990}

// rank is the 1-based nearest rank of percentile q among n samples.
func rank(n, q uint64) uint64 { return (q*n + 999_999) / 1_000_000 }

// tailPercentile returns the highest percentile of the ladder with at
// least ten of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n uint64) uint64 {
	var best uint64
	for _, q := range ladder {
		if n-rank(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// supported caps percentile q at the highest one n samples support; it
// falls back to the median when the sample is too small for any.
func supported(n, q uint64) uint64 {
	if t := tailPercentile(n); t < q {
		return max(t, p50)
	}
	return q
}

// percentile returns the nearest-rank percentile q of sorted samples,
// 0 for none.
func percentile(sorted []int64, q uint64) int64 {
	n := uint64(len(sorted))
	if n == 0 {
		return 0
	}
	return sorted[max(rank(n, q), 1)-1]
}

// histQuantile is the percentile q of a histogram, capped at what its
// count supports, in the histogram's unit.
func histQuantile(h *stats.HistSnapshot, q uint64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Quantile(float64(supported(h.Count, q)) / 1e6)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample is a point-in-time reading of the program's exported counters
// and the recorder's aggregates: scalars and histograms by name, so
// that deltas and sums over windows are one loop each.
type sample struct {
	at      time.Time
	scalars map[string]float64
	hists   map[string]*stats.HistSnapshot
}

func newSample() sample {
	return sample{scalars: map[string]float64{}, hists: map[string]*stats.HistSnapshot{}}
}

// sub returns s − o.
func (s sample) sub(o sample) sample {
	d := newSample()
	for k, v := range s.scalars {
		d.scalars[k] = v - o.scalars[k]
	}
	for k, h := range s.hists {
		dh := *h
		if oh := o.hists[k]; oh != nil {
			for i := range dh.Buckets {
				dh.Buckets[i] -= oh.Buckets[i]
			}
			dh.Count -= oh.Count
			dh.Sum -= oh.Sum
		}
		d.hists[k] = &dh
	}
	return d
}

// add folds o into s.
func (s sample) add(o sample) {
	for k, v := range o.scalars {
		s.scalars[k] += v
	}
	for k, h := range o.hists {
		if s.hists[k] == nil {
			s.hists[k] = &stats.HistSnapshot{}
		}
		s.hists[k].Merge(h)
	}
}

// readRuntime adds the Go runtime's CPU and allocation counters.
func readRuntime(s sample) {
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			return m.Value.Float64()
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		}
		return 0
	}
	s.scalars["runtime.gc_cpu_s"] = val(ms[0])
	s.scalars["runtime.total_cpu_s"] = val(ms[1])
	s.scalars["runtime.alloc_bytes"] = val(ms[2])
}

// promSamples renders a registry and parses every sample line into
// name{labels} → value.
func promSamples(r *stats.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing metric line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// provenance identifies the machine, build and inputs of a result, so
// results from different machines are never compared silently.
type provenance struct {
	CPUs         int     `json:"cpus"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      int     `json:"seconds"`
	Trace        bool    `json:"trace"`
	Conns        int     `json:"conns"`
	Records      uint64  `json:"records"`
	Capacity     uint64  `json:"initial_capacity"`
	FrameOps     int     `json:"frame_ops"`
	Inflight     int     `json:"frames_in_flight_per_conn"`
	Budget       int     `json:"frames_per_conn_per_cycle"`
	Rate         float64 `json:"open_loop_rate_ops_per_s"`
	Cycles       int     `json:"cycles_per_run"`
	Recoveries   int     `json:"recoveries_per_cycle"`
	FlushPolicy  string  `json:"oplog_flush_policy"`
	FdatasyncP50 float64 `json:"fdatasync_p50_us"`
	// The CPU calibration is the SHA-256 rate of one core at the start
	// and the end of the run: a shared machine's speed drifts, and these
	// show by how much between two results.
	CPUCalibration    float64 `json:"cpu_calibration_sha256_mb_per_s"`
	CPUCalibrationEnd float64 `json:"cpu_calibration_end_sha256_mb_per_s"`
	// MemLatencyEnd is the memory latency at the end of the run, which
	// moves with the load the machine's neighbours put on its caches.
	MemLatencyEnd float64 `json:"mem_latency_end_ns"`
}

// commit returns the VCS revision stamped into the binary, or a note
// when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown (not built in a git checkout; see source_sha256)"
}

// sourceDigest hashes every Go source and go.mod file under root,
// skipping hidden directories, in path order: it names the code a
// result was measured on even where there is no commit.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fdatasyncP50 measures the median cost of a 4 KiB overwrite plus a
// data-only sync of a preallocated file in dir: what the oplog pays per
// group commit on that filesystem.
func fdatasyncP50(dir string) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fdatasync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const blocks = 256
	block := make([]byte, 4096)
	for i := 0; i < blocks; i++ {
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	var ds []time.Duration
	for i := 0; i < blocks; i++ {
		block[0] = byte(i)
		start := time.Now()
		if _, err := f.WriteAt(block, int64(i)*4096); err != nil {
			return 0, err
		}
		if err := datasync(f); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

// cpuCalibration hashes 4 MiB with SHA-256 nine times and returns the
// median rate in MB/s: a fixed piece of CPU work whose speed tracks
// the machine's.
func cpuCalibration() float64 {
	buf := make([]byte, 4<<20)
	rates := make([]float64, 9)
	for i := range rates {
		start := time.Now()
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
		rates[i] = float64(len(buf)) / time.Since(start).Seconds() / 1e6
	}
	return median(rates)
}

// memSink keeps memLatency's chase from being optimised away.
var memSink uint32

// memLatency follows a random cycle through 16 MiB of indices and
// returns the mean time per step in ns.
func memLatency() float64 {
	const n, steps = 4 << 20, 1 << 20
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves one cycle through every slot.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	start := time.Now()
	p := uint32(0)
	for i := 0; i < steps; i++ {
		p = next[p]
	}
	d := time.Since(start)
	memSink = p
	return float64(d.Nanoseconds()) / steps
}

func newProvenance(w *workload, seed uint64, seconds int, traced bool, dir string) (provenance, error) {
	root, err := os.Getwd()
	if err != nil {
		return provenance{}, err
	}
	digest, err := sourceDigest(root)
	if err != nil {
		return provenance{}, fmt.Errorf("hashing the source tree: %w", err)
	}
	fd, err := fdatasyncP50(dir)
	if err != nil {
		return provenance{}, fmt.Errorf("fdatasync probe: %w", err)
	}
	return provenance{
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: digest,
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        traced,
		Conns:        conns,
		Records:      w.records,
		Capacity:     w.capacity,
		FrameOps:     w.frameOps,
		Inflight:     w.inflight,
		Budget:       w.budget,
		Rate:         w.rate,
		Cycles:       cycles,
		Recoveries:   recoveries,
		FlushPolicy: fmt.Sprintf("adaptive group commit, %s window, %d KiB early close, %d MiB preallocated segments",
			flushPolicy.SyncEvery, flushPolicy.SyncBytes>>10, flushPolicy.PreallocBytes>>20),
		FdatasyncP50:   float64(fd) / 1e3,
		CPUCalibration: cpuCalibration(),
	}, nil
}
