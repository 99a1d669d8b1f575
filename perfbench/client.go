package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/wire"
)

// ackTimeout bounds how long a connection waits for the responses still
// outstanding when its timed phase ends; an op unanswered by then is
// counted as a timeout.
const ackTimeout = 20 * time.Second

// frame is one request frame in flight: an OpBatch frame of ops, or a
// single op.
type frame struct {
	write  bool
	ops    []op
	subs   []wire.Request
	resps  []wire.Response
	due    time.Time // when the frame was due: its slot freed, or its scheduled time
	sent   time.Time
	traced bool
}

// failures counts every attempted op that was not acked, by outcome.
type failures struct {
	Full, Draining, BadRequest, InvalidKey, IO, Timeout, Unacked uint64
}

func (f *failures) add(o failures) {
	f.Full += o.Full
	f.Draining += o.Draining
	f.BadRequest += o.BadRequest
	f.InvalidKey += o.InvalidKey
	f.IO += o.IO
	f.Timeout += o.Timeout
	f.Unacked += o.Unacked
}

func (f failures) total() uint64 {
	return f.Full + f.Draining + f.BadRequest + f.InvalidKey + f.IO + f.Timeout + f.Unacked
}

// frameRec is one answered frame.
type frameRec struct {
	at    int64 // answer time, ns since the timed phase began
	lat   int64 // client-observed latency, ns
	acked int32 // ops acked
	write bool
}

// tally is what one tracing mode of one connection observed.
type tally struct {
	acked  uint64
	writes uint64 // acked write ops
	frames []frameRec
	late   []int64 // how late each frame left the generator, ns
}

func (t *tally) merge(o *tally) {
	t.acked += o.acked
	t.writes += o.writes
	t.frames = append(t.frames, o.frames...)
	t.late = append(t.late, o.late...)
}

// lats returns the latencies of the read or the write frames.
func (t *tally) lats(write bool) []int64 {
	var out []int64
	for _, f := range t.frames {
		if f.write == write {
			out = append(out, f.lat)
		}
	}
	return out
}

// client is one benchmark connection with its own generator and book.
type client struct {
	w    *workload
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	gen  *generator
	book *book
	rec  *recorder // nil when untraced

	epoch      time.Time // when the timed phase began
	modes      [2]tally  // indexed by traced
	attempted  uint64
	fails      failures
	wrong      uint64 // reads that returned a value their key never held
	firstWrong string
}

func dial(addr string, w *workload, gen *generator, b *book, rec *recorder) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	nc.(*net.TCPConn).SetNoDelay(true)
	return &client{
		w: w, nc: nc, gen: gen, book: b, rec: rec,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}, nil
}

// verifyRead reports whether v is a value record idx can hold: its
// preload value or a value written by the connection that owns it.
func verifyRead(w *workload, idx, v uint64) bool {
	if idx >= negBase || idx >= w.records {
		return false
	}
	return v == preloadValue(idx) || writerOf(v) == idx%conns+1
}

// complete accounts one answered frame: latency, acks, failures and
// the correctness of every read.
func (c *client) complete(write, traced bool, ops []op, resps []wire.Response, due, sent, at time.Time, openLoop bool) {
	t := &c.modes[b2i(traced)]
	lat := at.Sub(sent)
	if openLoop {
		lat = at.Sub(due)
	}
	t.late = append(t.late, int64(sent.Sub(due)))
	acked := t.acked
	for i := range ops {
		o, r := &ops[i], &resps[i]
		switch r.Status {
		case wire.StatusOK:
			t.acked++
			if write {
				t.writes++
				c.book.set(o.idx, o.req.Value)
			} else if !verifyRead(c.w, o.idx, r.Value) {
				c.noteWrong(fmt.Sprintf("get of record %d returned %#x", o.idx, r.Value))
			}
		case wire.StatusNotFound:
			t.acked++
			if write || o.idx < negBase {
				c.noteWrong(fmt.Sprintf("op %d on record %d answered not-found", o.req.Op, o.idx))
			}
		case wire.StatusFull:
			c.fails.Full++
		case wire.StatusDraining:
			c.fails.Draining++
		case wire.StatusInvalidKey:
			c.fails.InvalidKey++
		default:
			c.fails.BadRequest++
		}
	}
	t.frames = append(t.frames, frameRec{at: int64(at.Sub(c.epoch)), lat: int64(lat), acked: int32(t.acked - acked), write: write})
	if traced && c.rec != nil {
		name := spanFrameRead
		if write {
			name = spanFrameWrite
		}
		id, keep := c.rec.keepRoot(name)
		c.rec.record(name, 0, id, sent, at, uint64(len(ops)), 0, keep)
	}
}

func (c *client) noteWrong(msg string) {
	if c.wrong == 0 {
		c.firstWrong = msg
	}
	c.wrong++
}

// lost accounts the ops of a frame whose answer failed with err. A
// write among them may or may not have been applied, so the audit
// skips its key.
func (c *client) lost(err error, ops []op) {
	n := uint64(len(ops))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) {
		c.fails.Timeout += n
	} else {
		c.fails.IO += n
	}
	c.forget(ops)
}

// unacked accounts the ops of a frame still outstanding behind a failed
// one: they will never be answered.
func (c *client) unacked(ops []op) {
	c.fails.Unacked += uint64(len(ops))
	c.forget(ops)
}

func (c *client) forget(ops []op) {
	for _, o := range ops {
		if o.req.Op != wire.OpGet {
			c.book.forget(o.idx)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pipeline keeps up to inflight OpBatch frames outstanding: each answer
// frees a slot that fill refills at once, until fill reports no more
// frames or the deadline passes; then it waits for the frames still
// outstanding. mode, when non-nil, says whether a frame is traced.
func (c *client) pipeline(inflight int, deadline time.Time, mode *atomic.Bool, fill func(f *frame) bool) error {
	ring := make([]*frame, inflight)
	var buf []byte
	// send refills f and writes it; a write error leaves f outstanding
	// (it may have reached the server) for the caller to account.
	send := func(f *frame, due time.Time) (bool, error) {
		if !time.Now().Before(deadline) || !fill(f) {
			return false, nil
		}
		f.subs = f.subs[:0]
		for i := range f.ops {
			f.subs = append(f.subs, f.ops[i].req)
		}
		var err error
		if buf, err = wire.AppendBatchRequest(buf[:0], f.subs); err != nil {
			panic(err) // frames hold 1..MaxBatchOps ops by construction
		}
		f.due = due
		f.traced = mode != nil && mode.Load()
		f.sent = time.Now()
		c.attempted += uint64(len(f.ops))
		if _, err := c.bw.Write(buf); err != nil {
			return true, err
		}
		return true, c.bw.Flush()
	}
	// Frames are answered in order, so the outstanding ones are always
	// the out slots starting at head.
	head, out := 0, 0
	fail := func(err error) {
		c.lost(err, ring[head].ops)
		for k := 1; k < out; k++ {
			c.unacked(ring[(head+k)%inflight].ops)
		}
	}
	if err := c.nc.SetReadDeadline(deadline.Add(ackTimeout)); err != nil {
		return err
	}
	now := time.Now()
	for i := range ring {
		ring[i] = &frame{}
		ok, err := send(ring[i], now)
		if ok {
			out++
		}
		if err != nil {
			fail(err)
			return nil
		}
		if !ok {
			break
		}
	}
	for ; out > 0; head = (head + 1) % inflight {
		f := ring[head]
		if cap(f.resps) < len(f.ops) {
			f.resps = make([]wire.Response, len(f.ops))
		}
		f.resps = f.resps[:len(f.ops)]
		if err := wire.ReadBatchResponses(c.br, f.resps); err != nil {
			fail(err)
			return nil
		}
		at := time.Now()
		c.complete(f.write, f.traced, f.ops, f.resps, f.due, f.sent, at, false)
		ok, err := send(f, at)
		if err != nil {
			// f is now the newest outstanding frame; everything older
			// than the out-1 frames after it was answered.
			head = (head + 1) % inflight
			c.lost(err, f.ops)
			for k := 1; k < out; k++ {
				c.unacked(ring[(head+k-1)%inflight].ops)
			}
			return nil
		}
		if !ok {
			out--
		}
	}
	return nil
}

// openLoop sends single-op frames on a fixed schedule, one every
// interval starting at start+offset, until the deadline, whether or
// not earlier frames have been answered. A receiver goroutine reads
// answers in order and times each frame from its due time.
func (c *client) openLoop(start, deadline time.Time, interval, offset time.Duration, mode *atomic.Bool) error {
	// The queue holds the frames sent and not yet answered; at the
	// benchmark's rates 2^16 frames is several seconds of backlog, far
	// beyond any latency a correct run shows.
	queue := make(chan *frame, 1<<16)
	var free sync.Pool // answered frames, recycled by the sender
	recvDone := make(chan struct{})
	if err := c.nc.SetReadDeadline(deadline.Add(ackTimeout)); err != nil {
		return err
	}
	go func() {
		defer close(recvDone)
		for f := range queue {
			var err error
			if f.resps[0], err = wire.ReadResponse(c.br); err != nil {
				c.lost(err, f.ops)
				for f := range queue { // the sender may still be queueing
					c.unacked(f.ops)
				}
				return
			}
			c.complete(f.write, f.traced, f.ops, f.resps, f.due, f.sent, time.Now(), true)
			free.Put(f)
		}
	}()
	sl, err := newSleeper()
	if err != nil {
		close(queue)
		<-recvDone
		return err
	}
	defer sl.close()
	var buf []byte
	for i := int64(0); ; i++ {
		due := start.Add(offset + time.Duration(i)*interval)
		if !due.Before(deadline) {
			break
		}
		if err = sl.until(due); err != nil {
			break
		}
		f, _ := free.Get().(*frame)
		if f == nil {
			f = &frame{}
		}
		o := c.gen.single()
		f.write = o.req.Op != wire.OpGet
		f.ops = append(f.ops[:0], o)
		f.resps = append(f.resps[:0], wire.Response{})
		buf = wire.AppendRequest(buf[:0], o.req)
		f.due = due
		f.traced = mode != nil && mode.Load()
		f.sent = time.Now()
		c.attempted += uint64(len(f.ops))
		// Queued before the write, so a frame whose send fails is still
		// accounted by the receiver when its read fails.
		queue <- f
		if _, err = c.bw.Write(buf); err != nil {
			break
		}
		// Flush unless the next frame is already due: a late generator
		// then sends its backlog in one write.
		if start.Add(offset + time.Duration(i+1)*interval).After(time.Now()) {
			if err = c.bw.Flush(); err != nil {
				break
			}
		}
	}
	if ferr := c.bw.Flush(); err == nil {
		err = ferr
	}
	close(queue)
	<-recvDone
	return err
}
