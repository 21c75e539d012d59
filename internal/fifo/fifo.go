// Package fifo provides the bounded, strictly ordered, point-to-point
// message channels that connect neighbouring cores in a handshake-join
// pipeline.
//
// The correctness of low-latency handshake join (and of the original
// handshake join) depends on a strong property of these links: all
// messages from one node to its neighbour travel through the *same*
// FIFO channel regardless of message type, so an acknowledgement or an
// expedition-end message can never overtake a tuple arrival (§4.2.3 of
// the paper). Both implementations below guarantee strict FIFO order.
//
// Two implementations are provided behind the Queue interface:
//
//   - Ring: a lock-free single-producer/single-consumer ring buffer in
//     the spirit of the Multikernel-style asynchronous channels the paper
//     cites ([4] Baumann et al.). This is the default for live pipelines,
//     where each link has exactly one producing and one consuming
//     goroutine.
//   - Chan: a thin wrapper around a buffered Go channel, safe for
//     multiple producers/consumers; used where SPSC discipline does not
//     hold (e.g. result queues written by a node and drained by the
//     collector).
package fifo

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Put after Close.
var ErrClosed = errors.New("fifo: closed")

// Queue is a bounded FIFO of values of type T.
type Queue[T any] interface {
	// TryPut appends v; it returns false if the queue is full, and
	// ErrClosed if the queue has been closed.
	TryPut(v T) (bool, error)
	// TryGet removes the oldest value; ok is false if the queue is
	// empty. closed reports that the queue is closed *and* drained.
	TryGet() (v T, ok bool, closed bool)
	// Len returns the current number of queued values.
	Len() int
	// Cap returns the capacity.
	Cap() int
	// Close marks the queue closed. Pending values can still be drained.
	Close()
}

// Ring is a bounded lock-free SPSC queue. Exactly one goroutine may call
// TryPut (and Close) and exactly one may call TryGet; Len may be called
// from anywhere.
type Ring[T any] struct {
	buf    []T
	mask   uint64
	_      [48]byte // keep head and tail on separate cache lines
	head   atomic.Uint64
	_      [56]byte
	tail   atomic.Uint64
	_      [56]byte
	closed atomic.Bool
}

// NewRing returns a Ring with capacity rounded up to a power of two (at
// least 2).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// TryPut implements Queue.
func (r *Ring[T]) TryPut(v T) (bool, error) {
	if r.closed.Load() {
		return false, ErrClosed
	}
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false, nil // full
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1) // release: publish the slot
	return true, nil
}

// TryGet implements Queue.
func (r *Ring[T]) TryGet() (v T, ok bool, closed bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		if r.closed.Load() && head == r.tail.Load() {
			return v, false, true
		}
		return v, false, false
	}
	v = r.buf[head&r.mask]
	var zero T
	r.buf[head&r.mask] = zero // release reference for GC
	r.head.Store(head + 1)
	return v, true, false
}

// Len implements Queue.
func (r *Ring[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Cap implements Queue.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Close implements Queue.
func (r *Ring[T]) Close() { r.closed.Store(true) }

// Deque is an unbounded FIFO protected by a mutex, used for the
// interior links of live pipelines. Interior links must never block the
// sender: two neighbouring nodes each blocked on a full link toward the
// other would deadlock. Back-pressure is applied only at the pipeline
// entry points, which bounds interior occupancy in practice (see
// pipeline.Live). Strict FIFO order is preserved for all message kinds.
type Deque[T any] struct {
	mu     sync.Mutex
	buf    []T
	head   int
	count  int
	closed bool
}

// NewDeque returns an empty unbounded FIFO with the given initial
// capacity hint.
func NewDeque[T any](hint int) *Deque[T] {
	if hint < 8 {
		hint = 8
	}
	return &Deque[T]{buf: make([]T, hint)}
}

// Put appends v; it returns ErrClosed after Close and never blocks.
func (d *Deque[T]) Put(v T) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.count == len(d.buf) {
		grown := make([]T, 2*len(d.buf))
		n := copy(grown, d.buf[d.head:])
		copy(grown[n:], d.buf[:d.head])
		d.buf = grown
		d.head = 0
	}
	d.buf[(d.head+d.count)%len(d.buf)] = v
	d.count++
	return nil
}

// TryPut implements Queue (never reports full).
func (d *Deque[T]) TryPut(v T) (bool, error) {
	if err := d.Put(v); err != nil {
		return false, err
	}
	return true, nil
}

// TryGet implements Queue.
func (d *Deque[T]) TryGet() (v T, ok bool, closed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return v, false, d.closed
	}
	v = d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.count--
	return v, true, false
}

// Len implements Queue.
func (d *Deque[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Cap implements Queue; a Deque is unbounded, so Cap reports the current
// backing capacity.
func (d *Deque[T]) Cap() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.buf)
}

// Close implements Queue.
func (d *Deque[T]) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
}

// Chan is a Queue backed by a buffered Go channel. It is safe for any
// number of producers and consumers.
type Chan[T any] struct {
	ch     chan T
	closed atomic.Bool
}

// NewChan returns a channel-backed queue with the given capacity.
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Chan[T]{ch: make(chan T, capacity)}
}

// TryPut implements Queue.
func (c *Chan[T]) TryPut(v T) (bool, error) {
	if c.closed.Load() {
		return false, ErrClosed
	}
	select {
	case c.ch <- v:
		return true, nil
	default:
		return false, nil
	}
}

// TryGet implements Queue.
func (c *Chan[T]) TryGet() (v T, ok bool, closed bool) {
	select {
	case v, ok := <-c.ch:
		if !ok {
			return v, false, true
		}
		return v, true, false
	default:
		if c.closed.Load() {
			// Drain anything racing with Close.
			select {
			case v, ok := <-c.ch:
				if !ok {
					return v, false, true
				}
				return v, true, false
			default:
				return v, false, true
			}
		}
		return v, false, false
	}
}

// Len implements Queue.
func (c *Chan[T]) Len() int { return len(c.ch) }

// Cap implements Queue.
func (c *Chan[T]) Cap() int { return cap(c.ch) }

// Closed reports whether Close has been called; pending values may
// still be queued.
func (c *Chan[T]) Closed() bool { return c.closed.Load() }

// Close implements Queue. It must be called at most once and only by the
// producer side.
func (c *Chan[T]) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.ch)
	}
}
