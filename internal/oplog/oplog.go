// Package oplog is the file-backed operation log that closes the
// serving layer's durability hole: every mutating request the server
// acks is first made durable here, so "acked" finally means "survives
// a power failure", not "survives until the next snapshot".
//
// # Role next to snapshots
//
// The network server persists through pmfs snapshot images. An image
// alone only covers acked writes up to the moment it was captured; the
// oplog covers the tail. Each image records the log sequence number
// (LSN) of the last operation it contains (its "oplog mark"), and
// recovery is: load the newest image, then replay every log record
// with a higher LSN, in LSN order. Snapshot + log tail = complete
// state; the log is rotated at every snapshot and the fully-covered
// segments are deleted once the image is durable.
//
// # Group commit
//
// Appends go to an in-memory buffer and are durable only after an
// fsync covers them. Two commit modes share that buffer:
//
//   - Legacy (zero Config): the caller drives the fsync. Sync is a
//     group commit with a leader/waiter fast path: while one caller's
//     fsync is in flight, later appenders pile into the buffer and the
//     next Sync covers them all; a caller whose records were covered by
//     somebody else's fsync returns without touching the disk.
//   - Adaptive (Config.SyncEvery > 0): a committer goroutine owns the
//     fsync clock. The first record staged into an empty buffer opens a
//     commit window; the committer fsyncs when SyncEvery elapses or
//     SyncBytes accumulate, whichever first, so one fsync amortises
//     across every connection that appended inside the window — not
//     just one pipelined batch. Callers park in WaitDurable until the
//     durable-LSN watermark passes their record.
//
// Either way one fsync covers a whole batch of operations, amortising
// the dominant cost the same way the paper's batched persists amortise
// clflush traffic.
//
// # Crash safety
//
// Records carry a CRC and strictly sequential LSNs. A torn tail (the
// crash hit mid-write) fails the CRC or the sequence check and replay
// stops there — safe, because a record is only ever acked after an
// fsync that covers it and everything before it, so no acked record
// can follow a torn one. Segment files are created with their header
// fsynced (file and directory) before any record lands in them, and
// replay (Scan) never writes, so a crash during recovery just replays
// again from the same files: replay is idempotent by construction.
package oplog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

// Op identifies the logged store mutation.
type Op byte

// The logged operation kinds, mirroring the store's mutating API.
const (
	// OpPut is an upsert (grouphash.Store.Put).
	OpPut Op = iota + 1
	// OpInsert is an Algorithm-1 insert, duplicates allowed.
	OpInsert
	// OpDelete removes a key.
	OpDelete
)

// Record is one durable log entry: an acked (or at least
// fsync-covered) store mutation.
type Record struct {
	// LSN is the record's log sequence number; strictly sequential.
	LSN uint64
	// Op is the mutation kind.
	Op Op
	// Key is the target key.
	Key layout.Key
	// Value is the payload word (unused by OpDelete).
	Value uint64
}

// segMagic identifies an oplog segment file, last byte = format
// version.
const segMagic = 0x47484f504c4f4701 // "GHOPLOG" + 1

// segHeaderLen is the segment header size: magic, seq, startLSN, crc
// (padded to a word).
const segHeaderLen = 32

// recordLen is the fixed record size: lsn, key.Lo, key.Hi, value, op +
// 3 pad bytes, crc32.
const recordLen = 8 + 8 + 8 + 8 + 4 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("oplog: log is closed")

// Config tunes the log's commit scheduling and segment allocation. The
// zero value is the legacy synchronous mode: callers drive every fsync
// through Sync and segments grow on demand.
type Config struct {
	// SyncEvery, when > 0, enables adaptive group commit: a committer
	// goroutine fsyncs at most SyncEvery after the first record of a
	// window is staged. It bounds both the added ack latency and the
	// durability lag of an append nobody is waiting on.
	SyncEvery time.Duration
	// SyncBytes, when > 0 in adaptive mode, closes a commit window
	// early once at least SyncBytes of records are staged, so heavy
	// pipelines do not queue a full SyncEvery behind the timer.
	SyncBytes int
	// PreallocBytes, when > 0, zero-fills each new segment file to this
	// size at creation so steady-state record flushes never extend the
	// file and can use a data-only fsync (fdatasync on Linux) instead
	// of journaling a size update per batch.
	PreallocBytes int64
}

// segment is one on-disk log file. Segment i holds LSNs
// [start_i, start_{i+1}-1]; the last segment is the active one.
type segment struct {
	path  string
	seq   uint64
	start uint64 // first LSN this segment may contain
	dead  bool   // header unreadable (crash mid-creation): no records
}

// Log is an append-only, group-committed operation log. Append and
// Sync are safe for concurrent use, including concurrently with
// Rotate (a record assigned during a rotation lands in the new
// segment, whose header start covers it); Rotate/TruncateThrough/
// Close are the snapshot path's and must not race each other.
type Log struct {
	base string
	dir  string
	cfg  Config

	mu      sync.Mutex // buf, spare, lastLSN, active file identity
	buf     []byte
	spare   []byte // the last flushed buffer, handed back to appenders
	lastLSN uint64

	flushMu  sync.Mutex // file writes + fsync + segment swap
	f        *os.File   // active segment
	written  int64      // bytes written to the active segment
	synced   int64      // bytes fsynced (crash-survivable prefix)
	prealloc int64      // preallocated size of the active segment (0 = none)
	err      error      // sticky I/O failure: nothing acks after it

	segs    []segment // all live segments, seq order, active last
	durable atomic.Uint64
	closed  atomic.Bool

	// Adaptive-mode machinery (nil/unused when cfg.SyncEvery == 0).
	kick          chan struct{} // a record was staged into an empty buffer
	kickBytes     chan struct{} // staged bytes crossed cfg.SyncBytes
	stopc         chan struct{}
	committerDone chan struct{}

	// WaitDurable parking. waitMu also serialises the sticky waitErr;
	// flushers broadcast after every durable-watermark advance/failure.
	waitMu   sync.Mutex
	waitCond *sync.Cond
	waitErr  error

	// Observability (zero-value-ready; exported via RegisterMetrics).
	syncLat   stats.Histogram // fsync syscall latency, nanoseconds
	batchRec  stats.Histogram // records made durable per fsync (group-commit batch)
	fsyncs    atomic.Uint64
	appends   atomic.Uint64 // Append/AppendBatch calls — buffer-lock acquisitions, not records
	rotations atomic.Uint64
	truncated atomic.Uint64
	bytesOut  atomic.Uint64
}

// testHookRotateAfterDrain, when non-nil, runs inside Rotate between
// the flush-drain and the new segment's creation — the window where a
// concurrent Append may assign LSNs past the drained high-water mark.
// Tests use it to pin that such a record lands in the new segment
// under a header start that covers it.
var testHookRotateAfterDrain func()

// testHookFsyncErr, when non-nil, is consulted before every record
// fsync; a non-nil return is treated exactly like the fsync syscall
// failing. Tests use it to prove batch-failure fan-out: every waiter of
// the failed group commit (and every later one) must see the error.
var testHookFsyncErr func() error

// SetTestFsyncErr installs (or, with nil, clears) a hook consulted
// before every record fsync; a non-nil return from the hook is treated
// exactly like the fsync syscall failing. For crash-injection tests in
// other packages only — production code must never call it.
func SetTestFsyncErr(fn func() error) { testHookFsyncErr = fn }

// segPath names segment seq of a log based at base.
func segPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%08d", base, seq)
}

// listSegments finds the existing segment files of base, sorted by
// sequence number, reading each header for its start LSN.
func listSegments(base string) ([]segment, error) {
	matches, err := filepath.Glob(base + ".*")
	if err != nil {
		return nil, fmt.Errorf("oplog: listing segments: %w", err)
	}
	var segs []segment
	for _, path := range matches {
		// segPath pads to 8 digits but widens beyond them once seq
		// exceeds 99,999,999 — accept any all-digit suffix of at least
		// the padded width, or recovery would silently skip segments.
		suffix := path[len(base)+1:]
		if len(suffix) < 8 {
			continue
		}
		seq, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil {
			continue
		}
		s := segment{path: path, seq: seq}
		if start, err := readSegHeader(path); err != nil {
			s.dead = true // crash mid-creation; provably holds no acked record
		} else {
			s.start = start
		}
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// readSegHeader validates a segment file's header and returns its
// start LSN.
func readSegHeader(path string) (start uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("oplog: segment header: %w", err)
	}
	return parseSegHeader(hdr[:])
}

func parseSegHeader(hdr []byte) (start uint64, err error) {
	if got := binary.LittleEndian.Uint64(hdr[0:8]); got != segMagic {
		return 0, fmt.Errorf("oplog: bad segment magic %#x", got)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[24:28]), crc32.Checksum(hdr[:24], crcTable); got != want {
		return 0, fmt.Errorf("oplog: segment header crc %#x, want %#x", got, want)
	}
	return binary.LittleEndian.Uint64(hdr[16:24]), nil
}

// writeSegHeader creates a new segment file and makes its existence
// durable (header fsync + directory fsync) before returning it. When
// prealloc > 0 the file is zero-filled to that size first, so later
// record flushes inside the region never extend the file — a
// zero-filled tail is recovery-equivalent to a torn tail (a zero
// record fails both the CRC and the LSN sequence check), so replay
// stops at the last real record exactly as it does today.
func writeSegHeader(path string, seq, start uint64, prealloc int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("oplog: creating segment: %w", err)
	}
	if prealloc > segHeaderLen {
		// Real zero writes, not Truncate: a sparse hole would still cost
		// a block-mapping metadata commit on first write into it.
		zeros := make([]byte, 256<<10)
		for off := int64(0); off < prealloc; {
			n := prealloc - off
			if n > int64(len(zeros)) {
				n = int64(len(zeros))
			}
			if _, err := f.WriteAt(zeros[:n], off); err != nil {
				f.Close()
				return nil, fmt.Errorf("oplog: preallocating segment: %w", err)
			}
			off += n
		}
	}
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], start)
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(hdr[:24], crcTable))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("oplog: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("oplog: syncing segment header: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so file creations and deletions inside it
// are durable, not merely visible.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("oplog: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("oplog: syncing directory: %w", err)
	}
	return nil
}

// Open opens the log based at base for appending with the legacy
// (caller-driven Sync) configuration. See OpenConfig.
func Open(base string, nextLSN uint64) (*Log, error) {
	return OpenConfig(base, nextLSN, Config{})
}

// OpenConfig opens the log based at base for appending, starting a
// fresh segment whose first LSN is nextLSN (callers derive it from
// Scan and the snapshot's oplog mark: one past the highest LSN known).
// A fresh segment — never appending to an existing file — means a torn
// tail left by a crash can never precede new records. When
// cfg.SyncEvery > 0 the returned log runs in adaptive group-commit
// mode with its own committer goroutine; Close (or Abort) stops it.
func OpenConfig(base string, nextLSN uint64, cfg Config) (*Log, error) {
	if nextLSN == 0 {
		nextLSN = 1
	}
	segs, err := listSegments(base)
	if err != nil {
		return nil, err
	}
	seq := uint64(1)
	if n := len(segs); n > 0 {
		seq = segs[n-1].seq + 1
	}
	path := segPath(base, seq)
	f, err := writeSegHeader(path, seq, nextLSN, cfg.PreallocBytes)
	if err != nil {
		return nil, err
	}
	l := &Log{
		base:     base,
		dir:      filepath.Dir(base),
		cfg:      cfg,
		f:        f,
		written:  segHeaderLen,
		synced:   segHeaderLen,
		prealloc: cfg.PreallocBytes,
		lastLSN:  nextLSN - 1,
		segs:     append(segs, segment{path: path, seq: seq, start: nextLSN}),
	}
	l.durable.Store(nextLSN - 1)
	l.waitCond = sync.NewCond(&l.waitMu)
	if l.adaptive() {
		l.kick = make(chan struct{}, 1)
		l.kickBytes = make(chan struct{}, 1)
		l.stopc = make(chan struct{})
		l.committerDone = make(chan struct{})
		go l.committer()
	}
	return l, nil
}

// adaptive reports whether the committer goroutine owns the fsync
// clock.
func (l *Log) adaptive() bool { return l.cfg.SyncEvery > 0 }

// Append stages one mutation record and returns its LSN. The record is
// NOT durable until a Sync or WaitDurable covering the LSN returns
// nil — callers must not ack before that. In adaptive mode an append
// into an empty buffer opens a commit window (the committer will fsync
// within cfg.SyncEvery), and crossing cfg.SyncBytes closes the window
// early.
func (l *Log) Append(op Op, k layout.Key, v uint64) uint64 {
	l.appends.Add(1)
	l.mu.Lock()
	l.lastLSN++
	lsn := l.lastLSN
	wasEmpty := len(l.buf) == 0
	l.buf = appendRecord(l.buf, Record{LSN: lsn, Op: op, Key: k, Value: v})
	staged := len(l.buf)
	l.mu.Unlock()
	l.kickAfterStage(wasEmpty, staged)
	return lsn
}

// AppendBatch stages every record of recs under ONE buffer-lock
// acquisition — the stripe-grouped apply path's amortisation: a run of
// N mutations costs one lock round trip and one staging pass instead of
// N — assigning strictly sequential LSNs. recs[i].LSN is overwritten
// with first+i, and first is returned; callers ack record i once
// WaitDurable(first+i) (or a Sync covering it) returns nil. Like
// Append, the records are NOT durable on return. An empty recs returns
// 0 without touching the log.
func (l *Log) AppendBatch(recs []Record) (first uint64) {
	if len(recs) == 0 {
		return 0
	}
	l.appends.Add(1)
	l.mu.Lock()
	first = l.lastLSN + 1
	wasEmpty := len(l.buf) == 0
	for i := range recs {
		l.lastLSN++
		recs[i].LSN = l.lastLSN
		l.buf = appendRecord(l.buf, recs[i])
	}
	staged := len(l.buf)
	l.mu.Unlock()
	l.kickAfterStage(wasEmpty, staged)
	return first
}

// kickAfterStage nudges the adaptive committer after records were
// staged: wasEmpty opens a commit window, crossing cfg.SyncBytes closes
// it early. No-op in legacy mode.
func (l *Log) kickAfterStage(wasEmpty bool, staged int) {
	if !l.adaptive() {
		return
	}
	// flushLocked grabs the whole buffer under l.mu, so exactly one
	// appender observes each empty→non-empty transition: every
	// commit window is opened by exactly one kick. A stale byte-kick
	// (sent just as the committer drained the buffer) only closes
	// the next window early — an extra fsync, never a lost one.
	if wasEmpty {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	if l.cfg.SyncBytes > 0 && staged >= l.cfg.SyncBytes {
		select {
		case l.kickBytes <- struct{}{}:
		default:
		}
	}
}

// committer is the adaptive-mode fsync clock: it sleeps until a kick
// opens a commit window, then flushes when cfg.SyncEvery elapses or
// the byte trigger fires, whichever first.
func (l *Log) committer() {
	defer close(l.committerDone)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-l.stopc:
			return
		case <-l.kick:
		}
		timer.Reset(l.cfg.SyncEvery)
		select {
		case <-l.stopc:
			if !timer.Stop() {
				<-timer.C
			}
			return
		case <-l.kickBytes:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
		l.commit()
	}
}

// commit is one committer flush: fsync whatever is pending, ignoring
// stale kicks. Errors are sticky in l.err and fanned out to waiters by
// flushLocked; the committer itself just keeps serving windows (every
// subsequent flush re-fails fast).
func (l *Log) commit() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	pending := len(l.buf) > 0 || l.lastLSN > l.durable.Load()
	l.mu.Unlock()
	if !pending {
		return
	}
	_, _ = l.flushLocked(true)
}

// WaitDurable blocks until every record with LSN ≤ upTo is durable, or
// the log fails or closes. It is the adaptive-mode ack gate: callers
// park here while the committer batches fsyncs across connections. In
// legacy mode it degrades to Sync, preserving the caller-driven group
// commit.
func (l *Log) WaitDurable(upTo uint64) error {
	if l.durable.Load() >= upTo {
		return nil
	}
	if !l.adaptive() {
		return l.Sync(upTo)
	}
	if l.closed.Load() {
		return ErrClosed
	}
	l.waitMu.Lock()
	defer l.waitMu.Unlock()
	for l.durable.Load() < upTo {
		if l.waitErr != nil {
			return l.waitErr
		}
		if l.closed.Load() {
			return ErrClosed
		}
		l.waitCond.Wait()
	}
	return nil
}

// notifyWaiters wakes WaitDurable parkers after the durable watermark
// moved. Taking waitMu (even without shared state to touch) closes the
// check-then-park race: a waiter that read a stale watermark either
// parks before we acquire waitMu (and gets this broadcast) or acquires
// it after us (and re-reads the fresh watermark).
func (l *Log) notifyWaiters() {
	l.waitMu.Lock()
	l.waitCond.Broadcast()
	l.waitMu.Unlock()
}

// failWaiters makes err sticky for WaitDurable and wakes every parked
// waiter so the whole failed batch — and anything racing it — observes
// the failure instead of hanging on a watermark that will never move.
func (l *Log) failWaiters(err error) {
	l.waitMu.Lock()
	if l.waitErr == nil {
		l.waitErr = err
	}
	l.waitCond.Broadcast()
	l.waitMu.Unlock()
}

// fail records err as the log's sticky I/O failure (first error wins)
// and fans it out to waiters. Caller holds flushMu.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	l.failWaiters(l.err)
	return l.err
}

// appendRecord encodes r onto buf.
func appendRecord(buf []byte, r Record) []byte {
	// Encode in place in the staging buffer: a local scratch array is
	// moved to the heap by escape analysis (the checksum call defeats
	// it) and would cost one allocation per staged record.
	n := len(buf)
	buf = append(buf, make([]byte, recordLen)...)
	b := buf[n : n+recordLen]
	binary.LittleEndian.PutUint64(b[0:8], r.LSN)
	binary.LittleEndian.PutUint64(b[8:16], r.Key.Lo)
	binary.LittleEndian.PutUint64(b[16:24], r.Key.Hi)
	binary.LittleEndian.PutUint64(b[24:32], r.Value)
	b[32] = byte(r.Op)
	binary.LittleEndian.PutUint32(b[36:40], crc32.Checksum(b[:36], crcTable))
	return buf
}

// parseRecord decodes and validates one record.
func parseRecord(b []byte) (Record, bool) {
	if len(b) < recordLen {
		return Record{}, false
	}
	if binary.LittleEndian.Uint32(b[36:40]) != crc32.Checksum(b[:36], crcTable) {
		return Record{}, false
	}
	r := Record{
		LSN:   binary.LittleEndian.Uint64(b[0:8]),
		Key:   layout.Key{Lo: binary.LittleEndian.Uint64(b[8:16]), Hi: binary.LittleEndian.Uint64(b[16:24])},
		Value: binary.LittleEndian.Uint64(b[24:32]),
		Op:    Op(b[32]),
	}
	if r.Op < OpPut || r.Op > OpDelete {
		return Record{}, false
	}
	return r, true
}

// Sync makes every record with LSN ≤ upTo durable, group-committing
// whatever else has been appended meanwhile. Returns immediately when
// a concurrent Sync already covered upTo. After an I/O failure the
// error is sticky: the durable prefix is unknown, so nothing may be
// acked on this log again.
func (l *Log) Sync(upTo uint64) error {
	if l.durable.Load() >= upTo {
		return nil
	}
	if l.closed.Load() {
		return ErrClosed
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if l.durable.Load() >= upTo { // a group leader covered us while we waited
		return nil
	}
	_, err := l.flushLocked(true)
	return err
}

// flushLocked writes the staged buffer to the active segment and, when
// fsync is set, makes it durable. It returns the high-water LSN the
// drain covered: every record with LSN ≤ hw is now in the active
// segment, every later one is still (or will be) staged. Caller holds
// flushMu.
func (l *Log) flushLocked(fsync bool) (hw uint64, err error) {
	if l.err != nil {
		// Re-fan-out so waiters that parked after the original failure
		// (racing appends of the failed batch's era) still observe it.
		l.failWaiters(l.err)
		return 0, l.err
	}
	l.mu.Lock()
	buf := l.buf
	// Hand appenders the spare buffer (the previously flushed one)
	// instead of nil: under load an append almost always lands while
	// the flush is writing, and regrowing from nil would cost one
	// large zeroed allocation per commit window.
	l.buf = l.spare[:0]
	l.spare = nil
	hw = l.lastLSN
	l.mu.Unlock()
	if len(buf) > 0 {
		if _, err := l.f.WriteAt(buf, l.written); err != nil {
			return hw, l.fail(fmt.Errorf("oplog: appending: %w", err))
		}
		l.written += int64(len(buf))
		l.bytesOut.Add(uint64(len(buf)))
	}
	if fsync {
		start := time.Now()
		if testHookFsyncErr != nil {
			if err := testHookFsyncErr(); err != nil {
				return hw, l.fail(fmt.Errorf("oplog: fsync: %w", err))
			}
		}
		// Inside a preallocated region the flush changed no file size or
		// block mapping, so a data-only sync suffices; past it (or with
		// no preallocation) fall back to a full fsync.
		var serr error
		if l.prealloc > 0 && l.written <= l.prealloc {
			serr = datasync(l.f)
		} else {
			serr = l.f.Sync()
		}
		if serr != nil {
			return hw, l.fail(fmt.Errorf("oplog: fsync: %w", serr))
		}
		l.syncLat.Observe(uint64(time.Since(start)))
		l.fsyncs.Add(1)
		if prev := l.durable.Load(); hw > prev {
			l.batchRec.Observe(hw - prev)
		}
		l.synced = l.written
		l.durable.Store(hw)
		l.notifyWaiters()
	}
	l.mu.Lock()
	l.spare = buf[:0] // flushed: its capacity backs the next window
	l.mu.Unlock()
	return hw, nil
}

// LastLSN returns the highest LSN assigned so far (not necessarily
// durable). Only stable while the caller excludes appenders.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// DurableLSN returns the highest LSN known durable.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// Rotate seals the active segment (flushing and fsyncing any staged
// records) and starts a fresh one. The snapshot path calls it inside
// the server's writer-exclusion window, so the sealed segments hold
// exactly the operations the about-to-be-written image covers.
func (l *Log) Rotate() error {
	if l.closed.Load() {
		return ErrClosed
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	// The drained high-water mark, not a fresh lastLSN read, decides the
	// new segment's start: an Append racing this rotation may assign
	// hw+1 after the drain, and that record — still staged — will be
	// flushed into the NEW segment, so the new header must claim hw+1
	// or replay would treat the record as a torn tail and drop it.
	hw, err := l.flushLocked(true)
	if err != nil {
		return err
	}
	if testHookRotateAfterDrain != nil {
		testHookRotateAfterDrain()
	}
	start := hw + 1
	seq := l.segs[len(l.segs)-1].seq + 1
	path := segPath(l.base, seq)
	f, err := writeSegHeader(path, seq, start, l.cfg.PreallocBytes)
	if err != nil {
		return l.fail(err)
	}
	old, oldWritten, oldPrealloc := l.f, l.written, l.prealloc
	l.f = f
	l.written, l.synced = segHeaderLen, segHeaderLen
	l.prealloc = l.cfg.PreallocBytes
	l.segs = append(l.segs, segment{path: path, seq: seq, start: start})
	l.rotations.Add(1)
	if oldPrealloc > oldWritten {
		// Give the sealed segment's unused preallocated tail back to the
		// filesystem. Best-effort: a leftover zero tail is replay-inert.
		_ = old.Truncate(oldWritten)
	}
	if err := old.Close(); err != nil {
		return l.fail(fmt.Errorf("oplog: closing sealed segment: %w", err))
	}
	return nil
}

// TruncateThrough deletes every sealed segment whose records are all
// covered by a durable snapshot with oplog mark lsn. The active
// segment always survives. Call only after the covering image has been
// durably published — a crash in between merely leaves covered
// segments behind, which replay skips by LSN.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	kept := l.segs[:0]
	removed := false
	for i, s := range l.segs {
		last := i == len(l.segs)-1
		// Sealed segment i's records end at start_{i+1}-1; dead
		// segments (unreadable header) hold nothing acked.
		covered := !last && (s.dead || l.segs[i+1].start-1 <= lsn)
		if !covered {
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("oplog: truncating: %w", err)
		}
		l.truncated.Add(1)
		removed = true
	}
	l.segs = kept
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// ActivePath returns the active segment's file path. Crash-simulation
// harnesses use it to tear the log's unsynced tail.
func (l *Log) ActivePath() string {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.segs[len(l.segs)-1].path
}

// SyncedSize returns the fsynced byte length of the active segment —
// the prefix a power failure is guaranteed to preserve. Bytes beyond
// it (written but unsynced) may survive, vanish, or tear arbitrarily.
func (l *Log) SyncedSize() int64 {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.synced
}

// WrittenSize returns the byte length the active segment would have if
// every write reached the file (synced or not).
func (l *Log) WrittenSize() int64 {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	_, _ = l.flushLocked(false) // push staged records out; written stays best-known on error
	return l.written
}

// Close flushes and fsyncs staged records and closes the active
// segment. The log cannot be used afterwards. In adaptive mode the
// committer is stopped first (outside flushMu, so an in-flight commit
// finishes rather than deadlocks), then the final flush covers
// whatever it had not yet committed, then parked waiters are released:
// each finds its record durable or the log closed — never a hang.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	l.stopCommitter()
	l.flushMu.Lock()
	_, err := l.flushLocked(true)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.flushMu.Unlock()
	l.notifyWaiters()
	return err
}

// stopCommitter shuts down the adaptive committer goroutine and waits
// for it to exit. No-op in legacy mode.
func (l *Log) stopCommitter() {
	if !l.adaptive() {
		return
	}
	close(l.stopc)
	<-l.committerDone
}

// Abort closes the active segment's file descriptor without flushing
// or fsyncing anything — the log's on-disk state is left exactly as a
// power failure would find it. Crash-torture harnesses use it to
// abandon a log after a simulated crash (optionally tearing the
// unsynced tail first); everything else wants Close.
func (l *Log) Abort() {
	if l.closed.Swap(true) {
		return
	}
	l.stopCommitter()
	l.flushMu.Lock()
	l.f.Close()
	l.flushMu.Unlock()
	l.notifyWaiters() // parked waiters observe closed, not a hang
}

// Scan replays the log based at base: every valid record with LSN >
// after is passed to fn, in LSN order. It stops at the first torn or
// out-of-sequence record of a segment (records past it were never
// acked — see the package comment) and continues with the next
// segment. Scan never writes, so a crash during replay is recovered by
// simply scanning again. It returns the LSN one past the highest
// observed (the nextLSN a subsequent Open should use) and the number
// of records passed to fn. Segments are read one at a time into a
// single buffer reused across them.
func Scan(base string, after uint64, fn func(Record) error) (next uint64, replayed int, err error) {
	segs, err := listSegments(base)
	if err != nil {
		return 1, 0, err
	}
	next = 1
	first := true
	var buf []byte
	for _, s := range segs {
		if s.dead {
			continue
		}
		switch {
		case first:
			next = s.start
			first = false
		case s.start < next:
			// Overlapping LSNs cannot come out of the rotation protocol;
			// refuse to replay rather than double-apply.
			return next, replayed, fmt.Errorf("oplog: segment %s starts at LSN %d, already past %d", s.path, s.start, next)
		case s.start > next:
			// Gap: the previous segment lost an unsynced (thus unacked)
			// tail. Continue from this segment's start.
			next = s.start
		}
		if buf, err = readSegment(s.path, buf); err != nil {
			return next, replayed, err
		}
		n, cnt, err := scanSegment(buf, next, after, fn)
		replayed += cnt
		if err != nil {
			return n, replayed, err
		}
		next = n
	}
	return next, replayed, nil
}

// readSegment reads the segment file at path into buf, growing it only
// when the file is larger than any read before.
func readSegment(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, fmt.Errorf("oplog: reading segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf, fmt.Errorf("oplog: reading segment: %w", err)
	}
	if size := int(fi.Size()); cap(buf) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return buf, fmt.Errorf("oplog: reading segment: %w", err)
	}
	return buf[:n], nil // a file that shrank since Stat reads short
}

// scanSegment replays one segment's records from its contents buf,
// expecting the first LSN to be expected; returns the next expected
// LSN after the segment.
func scanSegment(buf []byte, expected, after uint64, fn func(Record) error) (uint64, int, error) {
	if len(buf) < segHeaderLen {
		return expected, 0, nil // torn header: no records
	}
	body := buf[segHeaderLen:]
	count := 0
	for off := 0; off+recordLen <= len(body); off += recordLen {
		rec, ok := parseRecord(body[off : off+recordLen])
		if !ok || rec.LSN != expected {
			// Torn or out-of-sequence tail: everything from here on was
			// never covered by an acked fsync.
			return expected, count, nil
		}
		expected++
		if rec.LSN > after {
			if err := fn(rec); err != nil {
				return expected, count, err
			}
			count++
		}
	}
	return expected, count, nil
}

// replayChunk is how many records Replay hands its applier at a time:
// large enough that a stripe-grouped apply amortises each stripe lock
// and count persist over many records, small enough that the chunk's
// buffers stay around a megabyte.
const replayChunk = 16 << 10

// Replay is Scan in batches: it decodes the records past after into a
// chunk of up to replayChunk batch ops and hands each chunk to apply,
// which must write every op's outcome into out. Chunks arrive in LSN
// order and so do the ops within one; apply may reorder ops of
// different keys but must keep each key's ops in order. The chunk and
// result buffers, allocated at the first record, are reused for the
// whole replay, so apply must not retain them.
//
// The first op whose outcome carries an Err stops the replay with an
// error naming that record's LSN. applied counts the records applied
// before it (later records of the same chunk may have applied too);
// next is what Scan returns.
func Replay(base string, after uint64, apply func(ops []core.BatchOp, out []core.BatchResult)) (applied int, next uint64, err error) {
	var (
		ops  []core.BatchOp
		lsns []uint64
		out  []core.BatchResult
	)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		res := out[:len(ops)]
		apply(ops, res)
		for i := range res {
			if res[i].Err != nil {
				applied += i
				return fmt.Errorf("oplog: record %d: %w", lsns[i], res[i].Err)
			}
		}
		applied += len(ops)
		ops, lsns = ops[:0], lsns[:0]
		return nil
	}
	next, _, err = Scan(base, after, func(r Record) error {
		var kind core.BatchKind
		switch r.Op {
		case OpPut:
			kind = core.BatchPut
		case OpInsert:
			kind = core.BatchInsert
		case OpDelete:
			kind = core.BatchDelete
		default:
			return fmt.Errorf("oplog: record %d has unknown op %d", r.LSN, r.Op)
		}
		if ops == nil { // allocated on the first record: a log with nothing to replay costs nothing
			ops = make([]core.BatchOp, 0, replayChunk)
			lsns = make([]uint64, 0, replayChunk)
			out = make([]core.BatchResult, replayChunk)
		}
		ops = append(ops, core.BatchOp{Kind: kind, Key: r.Key, Value: r.Value})
		lsns = append(lsns, r.LSN)
		if len(ops) == replayChunk {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	return applied, next, err
}
