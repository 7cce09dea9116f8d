package radio

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The medium keeps its endpoints and links in short slices scanned
// linearly. This test pins that representation to plain map-backed
// semantics, modelled below, over randomized operation sequences.

// downEvent is one LinkDown notification: the endpoint at `at` heard
// that its link to peer is gone.
type downEvent struct{ at, peer BDAddr }

// observedEndpoint is a fake controller that logs LinkDown calls and
// received frames into shared logs, so the test sees the order in
// which the medium reached every endpoint.
type observedEndpoint struct {
	fakeEndpoint
	downs *[]downEvent
	rx    *[]string
}

func (o *observedEndpoint) LinkDown(peer BDAddr) {
	*o.downs = append(*o.downs, downEvent{at: o.addr, peer: peer})
}

func (o *observedEndpoint) ReceiveFrame(from BDAddr, data []byte) {
	*o.rx = append(*o.rx, fmt.Sprintf("%v→%v:%x", from, o.addr, data))
}

// refMedium is the map-backed reference model of Medium's endpoint and
// link bookkeeping.
type refMedium struct {
	endpoints map[BDAddr]Endpoint
	links     map[linkKey]bool
}

func (r *refMedium) register(ep Endpoint) error {
	if _, dup := r.endpoints[ep.Address()]; dup {
		return ErrDuplicateAddress
	}
	r.endpoints[ep.Address()] = ep
	return nil
}

func (r *refMedium) notify(at, peer BDAddr) []downEvent {
	if ep, ok := r.endpoints[at]; ok {
		if _, ok := ep.(LinkObserver); ok {
			return []downEvent{{at: at, peer: peer}}
		}
	}
	return nil
}

func (r *refMedium) unregister(addr BDAddr) (downs []downEvent) {
	delete(r.endpoints, addr)
	for k := range r.links {
		if k.a != addr && k.b != addr {
			continue
		}
		delete(r.links, k)
		peer := k.a
		if peer == addr {
			peer = k.b
		}
		downs = append(downs, r.notify(peer, addr)...)
	}
	return downs
}

func (r *refMedium) page(initiator, target BDAddr) error {
	ep, ok := r.endpoints[target]
	if !ok {
		return ErrUnknownAddress
	}
	if _, ok := r.endpoints[initiator]; !ok {
		return ErrUnknownAddress
	}
	if !ep.Connectable() {
		return ErrNotConnectable
	}
	r.links[orderedKey(initiator, target)] = true
	return nil
}

func (r *refMedium) drop(x, y BDAddr) []downEvent {
	key := orderedKey(x, y)
	if !r.links[key] {
		return nil
	}
	delete(r.links, key)
	return append(r.notify(x, y), r.notify(y, x)...)
}

// carry returns the address of the endpoint that receives the frame and
// the expected error.
func (r *refMedium) carry(from, to BDAddr) (BDAddr, error) {
	if _, ok := r.endpoints[to]; !ok {
		return BDAddr{}, ErrUnknownAddress
	}
	if !r.links[orderedKey(from, to)] {
		return BDAddr{}, ErrNotConnected
	}
	return to, nil
}

func (r *refMedium) inquiry(origin BDAddr) []InquiryResult {
	var out []InquiryResult
	for addr, ep := range r.endpoints {
		if addr == origin {
			continue
		}
		if res, ok := ep.Discoverable(); ok {
			out = append(out, res)
		}
	}
	slices.SortFunc(out, func(a, b InquiryResult) int {
		return slices.Compare(a.Addr[:], b.Addr[:])
	})
	return out
}

// sameErr reports whether got matches the reference's sentinel (or both
// are nil).
func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

func sortedDowns(d []downEvent) []downEvent {
	d = slices.Clone(d)
	slices.SortFunc(d, func(a, b downEvent) int {
		if c := slices.Compare(a.at[:], b.at[:]); c != 0 {
			return c
		}
		return slices.Compare(a.peer[:], b.peer[:])
	})
	return d
}

func TestMediumMatchesMapModel(t *testing.T) {
	// Six addresses, registered in a shuffled order per seed, so at least
	// four endpoints are live most of the time and the slice order never
	// matches the address order.
	var pool []BDAddr
	for i := 0; i < 6; i++ {
		pool = append(pool, BDAddr{0x10, 0x20, 0x30, byte(7 * (6 - i)), 0x00, byte(i)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var downs []downEvent
		var rx []string
		m := newTestMedium()
		ref := &refMedium{endpoints: map[BDAddr]Endpoint{}, links: map[linkKey]bool{}}
		eps := map[BDAddr]*observedEndpoint{}
		newEP := func(addr BDAddr) *observedEndpoint {
			ep := &observedEndpoint{
				fakeEndpoint: fakeEndpoint{
					addr:         addr,
					connectable:  rng.Intn(5) > 0,
					discoverable: rng.Intn(3) > 0,
					name:         addr.String(),
				},
				downs: &downs, rx: &rx,
			}
			eps[addr] = ep
			return ep
		}
		for _, i := range rng.Perm(len(pool))[:4] {
			ep := newEP(pool[i])
			if err := m.Register(ep); err != nil {
				t.Fatal(err)
			}
			_ = ref.register(ep)
		}
		pick := func() BDAddr { return pool[rng.Intn(len(pool))] }
		for op := 0; op < 400; op++ {
			downs, rx = downs[:0], rx[:0]
			var wantDowns []downEvent
			var desc string
			switch k := rng.Intn(10); {
			case k == 0:
				addr := pick()
				ep := newEP(addr)
				desc = fmt.Sprintf("Register(%v)", addr)
				got, want := m.Register(ep), ref.register(ep)
				if !sameErr(got, want) {
					t.Fatalf("seed %d op %d %s: error %v, model %v", seed, op, desc, got, want)
				}
			case k == 1:
				addr := pick()
				desc = fmt.Sprintf("Unregister(%v)", addr)
				m.Unregister(addr)
				wantDowns = ref.unregister(addr)
			case k == 2:
				if ep := eps[pick()]; ep != nil {
					ep.connectable = !ep.connectable
				}
				continue
			case k <= 4:
				x, y := pick(), pick()
				desc = fmt.Sprintf("Page(%v, %v)", x, y)
				got, want := m.Page(x, y), ref.page(x, y)
				if !sameErr(got, want) {
					t.Fatalf("seed %d op %d %s: error %v, model %v", seed, op, desc, got, want)
				}
			case k == 5:
				x, y := pick(), pick()
				desc = fmt.Sprintf("Drop(%v, %v)", x, y)
				m.Drop(x, y)
				wantDowns = ref.drop(x, y)
			default:
				x, y := pick(), pick()
				desc = fmt.Sprintf("Carry(%v, %v)", x, y)
				data := []byte{byte(op), byte(seed)}
				got := m.Carry(x, y, data)
				to, want := ref.carry(x, y)
				if !sameErr(got, want) {
					t.Fatalf("seed %d op %d %s: error %v, model %v", seed, op, desc, got, want)
				}
				var wantRx []string
				if want == nil {
					wantRx = []string{fmt.Sprintf("%v→%v:%x", x, to, data)}
				}
				if !slices.Equal(rx, wantRx) {
					t.Fatalf("seed %d op %d %s: delivered %v, model %v", seed, op, desc, rx, wantRx)
				}
			}
			if got, want := sortedDowns(downs), sortedDowns(wantDowns); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d %s: LinkDown %v, model %v", seed, op, desc, got, want)
			}
			for _, x := range pool {
				for _, y := range pool {
					if got, want := m.Linked(x, y), ref.links[orderedKey(x, y)]; got != want {
						t.Fatalf("seed %d op %d %s: Linked(%v, %v) = %v, model %v", seed, op, desc, x, y, got, want)
					}
				}
			}
			origin := pick()
			if got, want := m.Inquiry(origin), ref.inquiry(origin); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d %s: Inquiry(%v) = %v, model %v", seed, op, desc, origin, got, want)
			}
		}
	}
}
