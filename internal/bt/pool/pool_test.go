package pool

import (
	"bytes"
	"testing"

	"l2fuzz/internal/bt/l2cap"
)

func TestGetLengthAndClasses(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 255, 1021, 4096, 65540} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) length = %d", n, len(b))
		}
		Put(b)
	}
}

func TestGetBeyondLargestClass(t *testing.T) {
	n := classSizes[len(classSizes)-1] + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("Get(%d) length = %d", n, len(b))
	}
	Put(b) // dropped silently: capacity matches no class
}

func TestPutIsSafeOnAnySlice(t *testing.T) {
	Put(nil)
	Put([]byte{})
	Put(make([]byte, 10))    // odd capacity: dropped
	Put(Get(100)[10:20])     // sub-slice at an offset: odd capacity, dropped
	Put(make([]byte, 0, 64)) // zero length, class capacity: recycled
}

func TestRecycling(t *testing.T) {
	b1 := Get(100)
	for i := range b1 {
		b1[i] = 0xAA
	}
	Put(b1)
	b2 := Get(200)
	// Same class (256): the pool should hand the same backing array back.
	if &b1[0] != &b2[0] {
		t.Fatalf("expected Get after Put to recycle the buffer")
	}
	Put(b2)
}

func TestCopy(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	c := Copy(src)
	if !bytes.Equal(c, src) {
		t.Fatalf("Copy = %v, want %v", c, src)
	}
	src[0] = 99
	if c[0] == 99 {
		t.Fatalf("Copy aliases its source")
	}
	Put(c)
}

func TestCapPerClass(t *testing.T) {
	// Over-releasing must not grow a free list beyond its cap.
	bufs := make([][]byte, 0, maxPerClass+10)
	for i := 0; i < maxPerClass+10; i++ {
		bufs = append(bufs, make([]byte, 64))
	}
	for _, b := range bufs {
		Put(b)
	}
	classes[0].mu.Lock()
	n := len(classes[0].bufs)
	classes[0].mu.Unlock()
	if n > maxPerClass {
		t.Fatalf("free list holds %d buffers, cap %d", n, maxPerClass)
	}
}

func TestGetDoesNotAllocateSteadyState(t *testing.T) {
	b := Get(512)
	Put(b)
	allocs := testing.AllocsPerRun(100, func() {
		b := Get(512)
		Put(b)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f times per op", allocs)
	}
}

// TestReleasedBufferMutationDoesNotReachRetainedFrames is the direct
// "mutate a released buffer" regression: release a pooled buffer, have
// the next borrower scribble it, and assert a frame retained (copied)
// before the release is untouched.
func TestReleasedBufferMutationDoesNotReachRetainedFrames(t *testing.T) {
	wire := l2cap.SignalPacket(nil, 7, &l2cap.EchoReq{Data: []byte("retained")}, nil).AppendTo(nil)

	borrowed := Copy(wire)
	retained := append([]byte(nil), borrowed...) // the "must copy" rule
	Put(borrowed)

	next := Get(len(wire)) // recycles the released buffer
	for i := range next {
		next[i] = 0xFF
	}
	if !bytes.Equal(retained, wire) {
		t.Fatalf("retained copy changed after its source buffer was released and reused")
	}
	Put(next)
}
