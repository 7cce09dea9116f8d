// Package pool provides size-classed byte-buffer pooling: process-global,
// mutex-guarded free lists over fixed capacity classes.
//
// The package is off the packet path: the host client's inbox copies
// payloads into slabs the client owns (see host.Client.Drain), so no rig
// takes this package's global lock. The package is kept only because the
// repository benchmark's pool.getput.* layer metrics import it; it can go
// once a benchmark change retires those metrics.
//
// # Ownership rules
//
// A buffer obtained from Get is owned by the caller until it calls Put.
// After Put the buffer may be handed to any later Get caller: using a
// released buffer (or a slice aliasing one) is a use-after-free in
// spirit. Put never clears buffers; callers must not assume zeroed
// contents.
//
// Buffers whose capacity does not match a size class (for example a
// slice carved out of a larger buffer) are silently dropped by Put, so
// it is always safe to call Put on any buffer that is merely no longer
// needed.
package pool

import "sync"

// classSizes are the pooled capacities. The packet path is dominated by
// small signaling frames (≤ ~700 bytes: the signaling MTU plus headers),
// with ACL fragments up to 1025 bytes and rare jumbo frames beyond; the
// largest class covers a maximal L2CAP frame (4-byte header + 65535
// payload, rounded up).
var classSizes = [...]int{64, 256, 1024, 4096, 16384, 65540}

// maxPerClass bounds each free list so a burst cannot pin an unbounded
// working set; overflow buffers are dropped to the garbage collector.
const maxPerClass = 1024

// freeList is a mutex-guarded stack of buffers of one capacity class.
// sync.Pool is deliberately not used: putting a []byte into a sync.Pool
// boxes the slice header into an interface, which allocates on every
// Put — the exact churn this package exists to remove. The stack's
// backing array is reused across Put/Get cycles, so steady-state
// operations are allocation-free.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

var classes [len(classSizes)]freeList

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class.
func classFor(n int) int {
	for i, size := range classSizes {
		if n <= size {
			return i
		}
	}
	return -1
}

// Get borrows a buffer of length n. The contents are unspecified (pooled
// buffers are not cleared); callers overwrite before reading. Lengths
// beyond the largest class are allocated directly and will be dropped on
// Put.
func Get(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	c := &classes[ci]
	c.mu.Lock()
	if last := len(c.bufs) - 1; last >= 0 {
		b := c.bufs[last]
		c.bufs[last] = nil
		c.bufs = c.bufs[:last]
		c.mu.Unlock()
		return b[:n]
	}
	c.mu.Unlock()
	return make([]byte, n, classSizes[ci])
}

// Copy borrows a buffer and fills it with src: the one-liner for the
// "anything retained must copy" rule at retention points.
func Copy(src []byte) []byte {
	b := Get(len(src))
	copy(b, src)
	return b
}

// Put releases a buffer previously returned by Get (any length,
// re-sliced or not). Buffers whose capacity matches no size class — nil
// slices, sub-slices at odd offsets, oversized one-off allocations — are
// dropped, so Put is safe on every []byte.
func Put(b []byte) {
	capacity := cap(b)
	if capacity == 0 {
		return
	}
	for i, size := range classSizes {
		if capacity == size {
			c := &classes[i]
			c.mu.Lock()
			if len(c.bufs) < maxPerClass {
				c.bufs = append(c.bufs, b[:capacity])
			}
			c.mu.Unlock()
			return
		}
	}
}
