package engine

import (
	"fmt"
	"sync"

	"grouphash/internal/chained"
	"grouphash/internal/core"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/linearprobe"
	"grouphash/internal/native"
	"grouphash/internal/oplog"
	"grouphash/internal/pathhash"
	"grouphash/internal/pfht"
	"grouphash/internal/pmfs"
	"grouphash/internal/stats"
)

// scheme is what the adapter needs from a comparison-scheme table:
// the base Table contract plus in-place update, crash recovery and
// the non-mutating consistency audit.
type scheme interface {
	hashtab.Table
	hashtab.Updater
	hashtab.Recoverable
	CheckConsistency() []string
}

// tableEngine adapts a sequential comparison-scheme table to the
// Engine interface: one RWMutex for concurrency (readers share,
// writers exclude — these schemes have no seqlock protocol), a
// sequential loop standing in for the flagship's stripe-grouped batch
// path, and snapshots through the pmfs image format over the native
// backend.
//
// The commit-hook contract holds trivially: ApplyBatch's hook runs
// between the mutations and the mutex release, and SnapshotWriterAt's cut() runs
// with the writer lock held, so an applied mutation and its oplog
// append are atomic against the snapshot cut exactly as on the
// flagship.
type tableEngine struct {
	mu   sync.RWMutex
	tab  scheme
	mem  *native.Memory
	l    layout.Layout
	spec Spec
	// applied is ApplyBatch's reusable committed-hook index buffer
	// (guarded by mu), so the serving loop's batch path stays
	// allocation-free at steady state on this engine too.
	applied []int
}

// newAdapter builds a comparison-scheme engine over a fresh native
// memory. The construction sequence per scheme is DETERMINISTIC — the
// same Spec always produces the same Alloc sequence — which is what
// lets loadAdapter rebuild the Go-side structure and overlay a saved
// image at the same addresses.
func newAdapter(spec Spec) (*tableEngine, error) {
	mem := native.New(0)
	tab, err := buildScheme(mem, spec)
	if err != nil {
		return nil, err
	}
	return &tableEngine{
		tab:  tab,
		mem:  mem,
		l:    layout.ForKeySize(spec.KeyBytes),
		spec: spec,
	}, nil
}

// buildScheme allocates spec's table in mem. Cell budgets give each
// fixed-size scheme ~2x headroom over the target item capacity, so
// the target is reachable at the moderate load factors these schemes
// are comfortable at (linear probing degrades sharply near full;
// path hashing's usable fraction of its ~2N total cells is similar).
func buildScheme(mem *native.Memory, spec Spec) (scheme, error) {
	switch spec.Name {
	case "pfht":
		return pfht.New(mem, pfht.Options{
			Cells:    nextPow2(2*spec.Capacity, 8),
			KeyBytes: spec.KeyBytes,
			Seed:     spec.Seed,
			Logged:   spec.Logged,
		}), nil
	case "pathhash":
		return pathhash.New(mem, pathhash.Options{
			Cells:    nextPow2(spec.Capacity, 4),
			KeyBytes: spec.KeyBytes,
			Seed:     spec.Seed,
			Logged:   spec.Logged,
		}), nil
	case "chained":
		return chained.New(mem, chained.Options{
			Buckets:  nextPow2(spec.Capacity, 4),
			KeyBytes: spec.KeyBytes,
			Seed:     spec.Seed,
		}), nil
	case "linearprobe":
		return linearprobe.New(mem, linearprobe.Options{
			Cells:    nextPow2(2*spec.Capacity, 8),
			KeyBytes: spec.KeyBytes,
			Seed:     spec.Seed,
			Logged:   spec.Logged,
		}), nil
	}
	return nil, fmt.Errorf("engine: no adapter for %q", spec.Name)
}

// nextPow2 returns the smallest power of two >= max(n, floor).
func nextPow2(n, floor uint64) uint64 {
	p := floor
	for p < n {
		p <<= 1
	}
	return p
}

// specFingerprint hashes the geometry-determining Spec fields (FNV-1a
// over a canonical string). Stored as the pmfs image's root word —
// the comparison schemes have no persistent header, so the root slot
// instead guards against reopening an image with mismatched flags,
// which would silently misread every cell.
func specFingerprint(spec Spec) uint64 {
	s := fmt.Sprintf("%s/%d/%d/%d/%t", spec.Name, spec.Capacity, spec.KeyBytes, spec.Seed, spec.Logged)
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// loadAdapter reopens a comparison-scheme snapshot: rebuild the table
// with the same deterministic allocation sequence, overlay the saved
// image (same addresses), restore the allocator watermark, and run
// the scheme's recovery pass to rebuild volatile Go-side state (the
// chained allocator's bitmap counters, stash counts, WAL rollback —
// a no-op on these quiesced images, but it makes Load self-checking).
func loadAdapter(spec Spec, path string) (*tableEngine, uint64, error) {
	img, allocated, root, mark, err := pmfs.LoadImage(path)
	if err != nil {
		return nil, 0, err
	}
	if want := specFingerprint(spec); root != want {
		return nil, 0, fmt.Errorf("engine: image %s was not written by engine %s with these parameters (spec fingerprint %#x, image has %#x)",
			path, spec.Name, want, root)
	}
	e, err := newAdapter(spec)
	if err != nil {
		return nil, 0, err
	}
	if got := e.mem.Allocated(); got != allocated {
		return nil, 0, fmt.Errorf("engine: image %s allocation watermark %d does not match a fresh %s build (%d)",
			path, allocated, spec.Name, got)
	}
	e.mem.SetImage(img)
	e.mem.SetAllocated(allocated)
	if _, err := e.tab.Recover(); err != nil {
		return nil, 0, fmt.Errorf("engine: recovering %s image %s: %w", spec.Name, path, err)
	}
	return e, mark, nil
}

func (e *tableEngine) Name() string { return e.spec.Name }

func (e *tableEngine) Get(k layout.Key) (uint64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tab.Lookup(k)
}

func (e *tableEngine) MGet(keys []layout.Key, vals []uint64, found []bool) {
	if len(keys) != len(vals) || len(keys) != len(found) {
		panic("engine: MGet len(keys) != len(vals) or len(found)")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i := range keys {
		vals[i], found[i] = e.tab.Lookup(keys[i])
	}
}

// putLocked is the upsert shared by Put and ApplyBatch:
// update in place when the key exists, insert otherwise — the façade's
// Put semantics. The explicit ValidKey check keeps the invalid-key
// answer O(1) (and identical across schemes) instead of depending on
// each scheme's probe loop to fail to match.
func (e *tableEngine) putLocked(k layout.Key, v uint64) (existed bool, err error) {
	if !e.l.ValidKey(k) {
		return false, hashtab.ErrInvalidKey
	}
	if e.tab.Update(k, v) {
		return true, nil
	}
	return false, e.tab.Insert(k, v)
}

func (e *tableEngine) Put(k layout.Key, v uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.putLocked(k, v)
	return err
}

func (e *tableEngine) Insert(k layout.Key, v uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tab.Insert(k, v)
}

func (e *tableEngine) Delete(k layout.Key) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tab.Delete(k)
}

// ApplyBatch is the sequential fallback for schemes without a striped
// batch path: one writer-lock acquisition for the whole burst, ops in
// submission order, one committed call at the end — the same outcome
// vocabulary as the flagship (Found/Err per op; delete-absent and
// failed ops are NOT in applied, so they are never logged).
func (e *tableEngine) ApplyBatch(ops []core.BatchOp, out []core.BatchResult, _ *core.BatchScratch, committed func(applied []int)) {
	if len(ops) != len(out) {
		panic("engine: ApplyBatch len(ops) != len(out)")
	}
	if len(ops) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	applied := e.applied[:0]
	for i := range ops {
		out[i] = core.BatchResult{}
		op := &ops[i]
		switch op.Kind {
		case core.BatchPut:
			existed, err := e.putLocked(op.Key, op.Value)
			if err != nil {
				out[i].Err = err
				continue
			}
			out[i].Found = existed
			applied = append(applied, i)
		case core.BatchInsert:
			if err := e.tab.Insert(op.Key, op.Value); err != nil {
				out[i].Err = err
				continue
			}
			applied = append(applied, i)
		case core.BatchDelete:
			if e.tab.Delete(op.Key) {
				out[i].Found = true
				applied = append(applied, i)
			}
		default:
			panic("engine: ApplyBatch: unknown BatchKind")
		}
	}
	if len(applied) > 0 && committed != nil {
		committed(applied)
	}
	e.applied = applied[:0]
}

func (e *tableEngine) Len() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tab.Len()
}

func (e *tableEngine) Capacity() uint64 { return e.tab.Capacity() }

func (e *tableEngine) LoadFactor() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return safeLoadFactor(e.tab.Len(), e.tab.Capacity())
}

func (e *tableEngine) Expanding() bool    { return false }
func (e *tableEngine) Expansions() uint64 { return 0 }

func (e *tableEngine) Quiesce(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
}

func (e *tableEngine) Recover() (hashtab.RecoveryReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tab.Recover()
}

func (e *tableEngine) CheckConsistency() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tab.CheckConsistency()
}

// RegisterMetrics mirrors the flagship's occupancy gauges (same metric
// names, so dashboards work unchanged across -engine choices); the
// expansion and fingerprint series of the flagship simply don't exist
// here.
func (e *tableEngine) RegisterMetrics(r *stats.Registry, prefix string) {
	p := prefix + "_store_"
	r.RegisterGauge(p+"items", "", "Items currently stored.",
		func() float64 { return float64(e.Len()) })
	r.RegisterGauge(p+"capacity_cells", "", "Total cell count of the table.",
		func() float64 { return float64(e.Capacity()) })
	r.RegisterGauge(p+"load_factor", "", "Items / cells.", e.LoadFactor)
}

func (e *tableEngine) Snapshot(path string) error {
	write, err := e.SnapshotWriterAt(func() (uint64, error) { return 0, nil })
	if err != nil {
		return err
	}
	return write(path)
}

func (e *tableEngine) SnapshotWriterAt(cut func() (uint64, error)) (func(path string) error, error) {
	e.mu.Lock()
	mark, err := cut()
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	img, allocated := e.mem.Image(), e.mem.Allocated()
	e.mu.Unlock()
	root := specFingerprint(e.spec)
	return func(path string) error {
		return pmfs.SaveImage(path, img, allocated, root, mark)
	}, nil
}

// ReplayOplog re-applies the log through ApplyBatch, one writer-lock
// acquisition per replay chunk, in log order.
func (e *tableEngine) ReplayOplog(base string, after uint64) (applied int, next uint64, err error) {
	applied, next, err = oplog.Replay(base, after, func(ops []core.BatchOp, out []core.BatchResult) {
		e.ApplyBatch(ops, out, nil, nil)
	})
	if err != nil {
		return applied, next, fmt.Errorf("engine: oplog replay: %w", err)
	}
	if next <= after {
		next = after + 1
	}
	return applied, next, nil
}
