package sm

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestHappyPathConnectConfigureOpen(t *testing.T) {
	m := NewMachine()
	steps := []struct {
		event      Event
		wantAction Action
		wantState  State
	}{
		{EvRecvConnectReq, ActDeliverToUpper, StateWaitConnect},
		{EvLocalAccept, ActSendConnectRsp, StateWaitConfig},
		{EvRecvConfigReq, ActSendConfigRsp, StateWaitSendConfig},
		{EvLocalSendConfigReq, ActSendConfigReq, StateWaitConfigRsp},
		{EvRecvConfigRsp, ActNone, StateOpen},
	}
	for i, st := range steps {
		tr, ok := m.Apply(st.event)
		if !ok {
			t.Fatalf("step %d: Apply(%v) rejected in %v", i, st.event, m.State())
		}
		if tr.Action != st.wantAction {
			t.Errorf("step %d: action = %v, want %v", i, tr.Action, st.wantAction)
		}
		if m.State() != st.wantState {
			t.Errorf("step %d: state = %v, want %v", i, m.State(), st.wantState)
		}
	}
}

func TestTableIIWaitConnectRejectsInvalidEvents(t *testing.T) {
	// Paper Table II: in WAIT_CONNECT every event except Connect Req (and
	// the internal accept) is rejected.
	m := NewMachine()
	if _, ok := m.Apply(EvRecvConnectReq); !ok {
		t.Fatal("ConnectReq must be valid in CLOSED")
	}
	invalid := []Event{
		EvRecvConnectRsp, EvRecvConfigReq, EvRecvConfigRsp,
		EvRecvDisconnectRsp, EvRecvCreateReq, EvRecvCreateRsp,
		EvRecvMoveReq, EvRecvMoveRsp, EvRecvMoveConfirmReq,
		EvRecvMoveConfirmRsp,
	}
	for _, e := range invalid {
		if _, ok := m.Apply(e); ok {
			t.Errorf("event %v accepted in WAIT_CONNECT, want reject", e)
		}
		if m.State() != StateWaitConnect {
			t.Fatalf("state moved to %v after invalid event", m.State())
		}
	}
	// The valid completion still works afterwards.
	if tr, ok := m.Apply(EvLocalAccept); !ok || tr.Next != StateWaitConfig {
		t.Fatalf("Apply(LocalAccept) = (%+v, %v), want WAIT_CONFIG", tr, ok)
	}
}

func TestLockstepConfigurationPath(t *testing.T) {
	m := NewMachine()
	mustApply(t, m, EvRecvConnectReq)
	mustApply(t, m, EvLocalAccept)

	tr, ok := m.Apply(EvRecvConfigReqEFS)
	if !ok {
		t.Fatal("EFS config request rejected in WAIT_CONFIG")
	}
	if tr.Action != ActSendConfigRspPending {
		t.Errorf("action = %v, want SendConfigRspPending", tr.Action)
	}
	if m.State() != StateWaitIndFinalRsp {
		t.Fatalf("state = %v, want WAIT_IND_FINAL_RSP", m.State())
	}
	mustApply(t, m, EvLocalFinalRsp)
	if m.State() != StateOpen {
		t.Fatalf("state = %v, want OPEN", m.State())
	}
}

func TestMoveChannelPath(t *testing.T) {
	m := NewMachine()
	driveToOpen(t, m)

	mustApply(t, m, EvRecvMoveReq)
	if m.State() != StateWaitMove {
		t.Fatalf("state = %v, want WAIT_MOVE", m.State())
	}
	tr, ok := m.Apply(EvLocalAccept)
	if !ok || tr.Action != ActSendMoveRsp {
		t.Fatalf("Apply(LocalAccept) = (%+v, %v), want SendMoveRsp", tr, ok)
	}
	if m.State() != StateWaitMoveConfirm {
		t.Fatalf("state = %v, want WAIT_MOVE_CONFIRM", m.State())
	}
	tr, ok = m.Apply(EvRecvMoveConfirmReq)
	if !ok || tr.Action != ActSendMoveConfirmRsp || m.State() != StateOpen {
		t.Fatalf("confirm step = (%+v, %v) in %v, want SendMoveConfirmRsp→OPEN", tr, ok, m.State())
	}
}

func TestDisconnectFromOpen(t *testing.T) {
	m := NewMachine()
	driveToOpen(t, m)
	mustApply(t, m, EvRecvDisconnectReq)
	if m.State() != StateWaitDisconnect {
		t.Fatalf("state = %v, want WAIT_DISCONNECT", m.State())
	}
	tr, ok := m.Apply(EvLocalAccept)
	if !ok || tr.Action != ActSendDisconnectRsp || m.State() != StateClosed {
		t.Fatalf("teardown = (%+v, %v) in %v, want SendDisconnectRsp→CLOSED", tr, ok, m.State())
	}
}

func TestDisconnectDuringConfiguration(t *testing.T) {
	// Every configuration state must honour a disconnect request.
	for _, seq := range [][]Event{
		{EvRecvConnectReq, EvLocalAccept},                                        // WAIT_CONFIG
		{EvRecvConnectReq, EvLocalAccept, EvRecvConfigReq},                       // WAIT_SEND_CONFIG
		{EvRecvConnectReq, EvLocalAccept, EvLocalSendConfigReq},                  // WAIT_CONFIG_REQ_RSP
		{EvRecvConnectReq, EvLocalAccept, EvLocalSendConfigReq, EvRecvConfigRsp}, // WAIT_CONFIG_REQ
		{EvRecvConnectReq, EvLocalAccept, EvRecvConfigReq, EvLocalSendConfigReq}, // WAIT_CONFIG_RSP
		{EvRecvConnectReq, EvLocalAccept, EvRecvConfigReqEFS},                    // WAIT_IND_FINAL_RSP
	} {
		m := NewMachine()
		for _, e := range seq {
			mustApply(t, m, e)
		}
		from := m.State()
		tr, ok := m.Apply(EvRecvDisconnectReq)
		if !ok || tr.Next != StateClosed {
			t.Errorf("disconnect in %v = (%+v, %v), want →CLOSED", from, tr, ok)
		}
	}
}

func TestCreateChannelPath(t *testing.T) {
	m := NewMachine()
	mustApply(t, m, EvRecvCreateReq)
	if m.State() != StateWaitCreate {
		t.Fatalf("state = %v, want WAIT_CREATE", m.State())
	}
	tr, ok := m.Apply(EvLocalAccept)
	if !ok || tr.Action != ActSendCreateRsp || m.State() != StateWaitConfig {
		t.Fatalf("create accept = (%+v, %v) in %v", tr, ok, m.State())
	}
}

func TestInitiatorRoleStates(t *testing.T) {
	m := NewMachine()
	mustApply(t, m, EvLocalOpenReq)
	if m.State() != StateWaitConnectRsp {
		t.Fatalf("state = %v, want WAIT_CONNECT_RSP", m.State())
	}
	mustApply(t, m, EvRecvConnectRsp)
	if m.State() != StateWaitConfig {
		t.Fatalf("state = %v, want WAIT_CONFIG", m.State())
	}
}

func TestAllResponderReachableStatesAreReachable(t *testing.T) {
	// Drive a machine through recipes that visit all 13 responder-
	// reachable states; the visited set must match exactly.
	recipes := [][]Event{
		// CLOSED → connect → config → open → move → confirm.
		{EvRecvConnectReq, EvLocalAccept, EvLocalSendConfigReq, EvRecvConfigRsp,
			EvRecvConfigReq, EvRecvMoveReq, EvLocalAccept, EvRecvMoveConfirmReq},
		// Create-channel entry plus the WAIT_SEND_CONFIG / WAIT_CONFIG_RSP arm.
		{EvRecvCreateReq, EvLocalAccept, EvRecvConfigReq, EvLocalSendConfigReq,
			EvRecvConfigRsp, EvRecvDisconnectReq, EvLocalAccept},
		// Lockstep configuration.
		{EvRecvConnectReq, EvLocalAccept, EvRecvConfigReqEFS, EvLocalFinalRsp},
	}
	visited := make(map[State]bool)
	for _, recipe := range recipes {
		m := NewMachine()
		for i, e := range recipe {
			if _, ok := m.Apply(e); !ok {
				t.Fatalf("recipe step %d (%v) rejected in %v", i, e, m.State())
			}
		}
		for _, s := range m.Visited() {
			visited[s] = true
		}
	}
	for s := range responderReachable {
		if !visited[s] {
			t.Errorf("responder-reachable state %v not reached by recipes", s)
		}
	}
	for s := range visited {
		if !responderReachable[s] {
			t.Errorf("reached %v, which is marked responder-unreachable", s)
		}
	}
}

func TestVisitedDeduplicates(t *testing.T) {
	m := NewMachine()
	driveToOpen(t, m)
	// First re-configuration loop may add the WAIT_SEND_CONFIG /
	// WAIT_CONFIG_RSP arm; a second identical loop must add nothing.
	reconfigure := func() {
		mustApply(t, m, EvRecvConfigReq)
		mustApply(t, m, EvLocalSendConfigReq)
		mustApply(t, m, EvRecvConfigRsp)
	}
	reconfigure()
	n := len(m.Visited())
	reconfigure()
	if got := len(m.Visited()); got != n {
		t.Errorf("Visited() grew from %d to %d on identical revisits", n, got)
	}
}

// Property: Apply never moves to an invalid state, rejected events
// never change state, and Visited lists the distinct states occupied,
// CLOSED first, in the order they were first entered.
func TestQuickApplyInvariants(t *testing.T) {
	f := func(events []uint8) bool {
		m := NewMachine()
		firstVisits := []State{StateClosed}
		for _, raw := range events {
			before := m.State()
			e := Event(raw%uint8(EvLocalOpenReq) + 1)
			tr, ok := m.Apply(e)
			if !ok && m.State() != before {
				return false
			}
			if ok && (m.State() != tr.Next || !validState(m.State())) {
				return false
			}
			if ok && !slices.Contains(firstVisits, m.State()) {
				firstVisits = append(firstVisits, m.State())
			}
		}
		return slices.Equal(m.Visited(), firstVisits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every transition target in the table is a valid state and
// every source state has a job.
func TestTransitionTableClosure(t *testing.T) {
	for _, s := range AllStates() {
		if JobOf(s) == 0 {
			t.Errorf("state %v has no job", s)
		}
		for _, e := range ValidEvents(s) {
			tr, ok := Lookup(s, e)
			if !ok {
				t.Fatalf("ValidEvents listed (%v, %v) but Lookup fails", s, e)
			}
			if !validState(tr.Next) {
				t.Errorf("(%v, %v) targets invalid state %v", s, e, tr.Next)
			}
			if tr.Action == 0 {
				t.Errorf("(%v, %v) has zero action", s, e)
			}
		}
	}
}

func mustApply(t *testing.T, m *Machine, e Event) {
	t.Helper()
	if _, ok := m.Apply(e); !ok {
		t.Fatalf("Apply(%v) rejected in state %v", e, m.State())
	}
}

func driveToOpen(t *testing.T, m *Machine) {
	t.Helper()
	mustApply(t, m, EvRecvConnectReq)
	mustApply(t, m, EvLocalAccept)
	mustApply(t, m, EvLocalSendConfigReq)
	mustApply(t, m, EvRecvConfigRsp)
	mustApply(t, m, EvRecvConfigReq)
	if m.State() != StateOpen {
		t.Fatalf("driveToOpen ended in %v", m.State())
	}
}

// TestLookupMatchesTransitionLiteral pins the indexed table Lookup reads
// to the transitions literal it is built from, over every (state, event)
// pair an 8-bit state and event can name, the out-of-range ones
// included.
func TestLookupMatchesTransitionLiteral(t *testing.T) {
	for s := 0; s < 256; s++ {
		for e := 0; e < 256; e++ {
			state, event := State(s), Event(e)
			want, wantOK := transitions[state][event]
			got, ok := Lookup(state, event)
			if got != want || ok != wantOK {
				t.Fatalf("Lookup(%v, %v) = %+v, %v; literal %+v, %v", state, event, got, ok, want, wantOK)
			}
		}
	}
}

// TestAppendVisitedReusesBuffer pins AppendVisited as Visited's
// allocation-free form: same states, appended after dst's contents.
func TestAppendVisitedReusesBuffer(t *testing.T) {
	m := NewMachine()
	driveToOpen(t, m)
	want := m.Visited()
	buf := make([]State, 1, 32)
	got := m.AppendVisited(buf)
	if len(got) != 1+len(want) || &got[0] != &buf[0] {
		t.Fatalf("AppendVisited did not append in place: %v", got)
	}
	for i, s := range want {
		if got[1+i] != s {
			t.Fatalf("AppendVisited = %v, Visited = %v", got[1:], want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { buf = m.AppendVisited(buf[:0]) }); n != 0 {
		t.Fatalf("AppendVisited into a roomy buffer allocates %.1f times", n)
	}
}

// TestEventAndActionNames pins the names the fixed arrays hand out,
// and the numeric fallback for values outside them.
func TestEventAndActionNames(t *testing.T) {
	events := map[Event]string{
		0: "Event(0)", EvRecvConnectReq: "RecvConnectReq", EvRecvConnectRsp: "RecvConnectRsp",
		EvRecvConfigReq: "RecvConfigReq", EvRecvConfigReqEFS: "RecvConfigReqEFS",
		EvRecvConfigRsp: "RecvConfigRsp", EvRecvDisconnectReq: "RecvDisconnectReq",
		EvRecvDisconnectRsp: "RecvDisconnectRsp", EvRecvCreateReq: "RecvCreateReq",
		EvRecvCreateRsp: "RecvCreateRsp", EvRecvMoveReq: "RecvMoveReq", EvRecvMoveRsp: "RecvMoveRsp",
		EvRecvMoveConfirmReq: "RecvMoveConfirmReq", EvRecvMoveConfirmRsp: "RecvMoveConfirmRsp",
		EvLocalAccept: "LocalAccept", EvLocalSendConfigReq: "LocalSendConfigReq",
		EvLocalFinalRsp: "LocalFinalRsp", EvLocalOpenReq: "LocalOpenReq",
		EvLocalOpenReq + 1: "Event(18)", 255: "Event(255)",
	}
	for e, want := range events {
		if got := e.String(); got != want {
			t.Errorf("Event(%d).String() = %q, want %q", uint8(e), got, want)
		}
	}
	actions := map[Action]string{
		0: "Action(0)", ActNone: "None", ActDeliverToUpper: "DeliverToUpper",
		ActSendConnectRsp: "SendConnectRsp", ActSendCreateRsp: "SendCreateRsp",
		ActSendConfigRsp: "SendConfigRsp", ActSendConfigRspPending: "SendConfigRspPending",
		ActSendConfigReq: "SendConfigReq", ActSendDisconnectRsp: "SendDisconnectRsp",
		ActSendMoveRsp: "SendMoveRsp", ActSendMoveConfirmRsp: "SendMoveConfirmRsp",
		ActSendConnectReq: "SendConnectReq", ActReject: "Reject",
		ActReject + 1: "Action(13)", 255: "Action(255)",
	}
	for a, want := range actions {
		if got := a.String(); got != want {
			t.Errorf("Action(%d).String() = %q, want %q", uint8(a), got, want)
		}
	}
}

// TestStateSetFoldsMachines pins the value machine's allocation-free
// reuse: a machine reset and driven again, its visits folded into a
// StateSet, allocates nothing, and the set lists the union of the
// visits in declaration order.
func TestStateSetFoldsMachines(t *testing.T) {
	var (
		m   Machine
		set StateSet
	)
	m.Reset()
	mustApply(t, &m, EvRecvCreateReq)
	set.AddVisited(&m)
	m.Reset()
	driveToOpen(t, &m)
	set.AddVisited(&m)
	want := []State{StateClosed, StateWaitConnect, StateWaitCreate, StateWaitConfig,
		StateWaitConfigReqRsp, StateWaitConfigReq, StateOpen}
	if got := set.AppendStates(nil); !slices.Equal(got, want) {
		t.Fatalf("AppendStates = %v, want %v", got, want)
	}
	reuse := func() {
		m.Reset()
		m.Apply(EvRecvConnectReq)
		m.Apply(EvLocalAccept)
		set.AddVisited(&m)
	}
	if n := testing.AllocsPerRun(100, reuse); n != 0 {
		t.Fatalf("reset, drive and fold allocate %.1f times", n)
	}
}
