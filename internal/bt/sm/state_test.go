package sm

import (
	"slices"
	"testing"

	"l2fuzz/internal/bt/l2cap"
)

func TestNineteenStates(t *testing.T) {
	states := AllStates()
	if len(states) != NumStates {
		t.Fatalf("AllStates() has %d states, want %d", len(states), NumStates)
	}
	seen := make(map[State]bool)
	for _, s := range states {
		if !validState(s) {
			t.Errorf("%v outside the defined range", s)
		}
		if seen[s] {
			t.Errorf("%v duplicated", s)
		}
		seen[s] = true
		if s.String() == "" {
			t.Errorf("%v has empty name", s)
		}
	}
}

// validState reports whether s is one of the 19 defined states.
func validState(s State) bool { return s >= StateClosed && s <= StateWaitConfirmRsp }

func TestJobPartitionMatchesTableI(t *testing.T) {
	// Every state belongs to exactly one job, and the per-job state sets
	// match the paper's Table I.
	want := map[Job][]State{
		JobClosed:     {StateClosed},
		JobConnection: {StateWaitConnect, StateWaitConnectRsp},
		JobCreation:   {StateWaitCreate, StateWaitCreateRsp},
		JobConfiguration: {
			StateWaitConfig, StateWaitSendConfig, StateWaitConfigReqRsp,
			StateWaitConfigRsp, StateWaitConfigReq, StateWaitIndFinalRsp,
			StateWaitFinalRsp, StateWaitControlInd,
		},
		JobDisconnection: {StateWaitDisconnect},
		JobMove:          {StateWaitMove, StateWaitMoveRsp, StateWaitMoveConfirm, StateWaitConfirmRsp},
		JobOpen:          {StateOpen},
	}

	got := make(map[Job][]State)
	for _, s := range AllStates() {
		got[JobOf(s)] = append(got[JobOf(s)], s)
	}
	total := 0
	for job, states := range want {
		if len(got[job]) != len(states) {
			t.Errorf("states of %v = %v, want %v", job, got[job], states)
			continue
		}
		for _, s := range states {
			if JobOf(s) != job {
				t.Errorf("JobOf(%v) = %v, want %v", s, JobOf(s), job)
			}
		}
		total += len(states)
	}
	if total != NumStates {
		t.Errorf("jobs partition %d states, want %d", total, NumStates)
	}
	if len(got) != NumJobs {
		t.Errorf("JobOf maps the states onto %d jobs, want %d", len(got), NumJobs)
	}
}

func TestValidCommandsMatchTableIII(t *testing.T) {
	tests := []struct {
		job  Job
		want []l2cap.CommandCode
	}{
		{JobConnection, []l2cap.CommandCode{l2cap.CodeConnectionReq, l2cap.CodeConnectionRsp}},
		{JobCreation, []l2cap.CommandCode{l2cap.CodeCreateChannelReq, l2cap.CodeCreateChannelRsp}},
		{JobConfiguration, []l2cap.CommandCode{l2cap.CodeConfigurationReq, l2cap.CodeConfigurationRsp}},
		{JobDisconnection, []l2cap.CommandCode{l2cap.CodeDisconnectionReq, l2cap.CodeDisconnectionRsp}},
		{JobMove, []l2cap.CommandCode{
			l2cap.CodeMoveChannelReq, l2cap.CodeMoveChannelRsp,
			l2cap.CodeMoveChannelConfirmReq, l2cap.CodeMoveChannelConfirmRsp,
		}},
	}
	for _, tt := range tests {
		got := ValidCommands(tt.job)
		if len(got) != len(tt.want) {
			t.Errorf("ValidCommands(%v) = %v, want %v", tt.job, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("ValidCommands(%v)[%d] = %v, want %v", tt.job, i, got[i], tt.want[i])
			}
		}
	}
	// Closed and Open accept all commands.
	for _, job := range []Job{JobClosed, JobOpen} {
		if got := ValidCommands(job); len(got) != l2cap.NumCommandCodes {
			t.Errorf("ValidCommands(%v) has %d commands, want all %d",
				job, len(got), l2cap.NumCommandCodes)
		}
	}
}

func TestCommandValidInState(t *testing.T) {
	tests := []struct {
		code  l2cap.CommandCode
		state State
		want  bool
	}{
		{l2cap.CodeConnectionReq, StateWaitConnect, true},
		{l2cap.CodeConfigurationReq, StateWaitConnect, false},
		{l2cap.CodeConfigurationReq, StateWaitConfig, true},
		{l2cap.CodeConfigurationRsp, StateWaitIndFinalRsp, true},
		{l2cap.CodeMoveChannelConfirmReq, StateWaitMoveConfirm, true},
		{l2cap.CodeMoveChannelConfirmReq, StateWaitConfig, false},
		{l2cap.CodeEchoReq, StateClosed, true}, // all commands in Closed
		{l2cap.CodeEchoReq, StateOpen, true},   // all commands in Open
		{l2cap.CodeEchoReq, StateWaitConfig, false},
		{l2cap.CodeDisconnectionReq, StateWaitDisconnect, true},
	}
	for _, tt := range tests {
		if got := slices.Contains(ValidCommands(JobOf(tt.state)), tt.code); got != tt.want {
			t.Errorf("%v valid in %v = %v, want %v", tt.code, tt.state, got, tt.want)
		}
	}
}

// responderReachable is the paper's Figure 10 set: the 13 states a
// master-side tester can steer an acceptor device into.
var responderReachable = map[State]bool{
	StateClosed: true, StateWaitConnect: true, StateWaitCreate: true,
	StateWaitConfig: true, StateWaitConfigRsp: true, StateWaitConfigReq: true,
	StateWaitConfigReqRsp: true, StateWaitSendConfig: true, StateWaitIndFinalRsp: true,
	StateWaitDisconnect: true, StateWaitMove: true, StateWaitMoveConfirm: true,
	StateOpen: true,
}

// TestResponderReachableStates pins the Figure 10 set: 13 states, and
// with the six the device itself must initiate (connect, create, move
// or lockstep control) it partitions all 19.
func TestResponderReachableStates(t *testing.T) {
	if len(responderReachable) != 13 {
		t.Fatalf("%d responder-reachable states, want 13 (paper Figure 10)", len(responderReachable))
	}
	unreachable := map[State]bool{
		StateWaitConnectRsp: true, StateWaitCreateRsp: true,
		StateWaitMoveRsp: true, StateWaitConfirmRsp: true,
		StateWaitFinalRsp: true, StateWaitControlInd: true,
	}
	for _, s := range AllStates() {
		if responderReachable[s] == unreachable[s] {
			t.Errorf("%v is in both or neither of the reachable and unreachable sets", s)
		}
	}
}

// TestJobOfOutOfRange pins JobOf's zero Job for values that name no
// state, as the map it replaced returned.
func TestJobOfOutOfRange(t *testing.T) {
	for _, s := range []State{0, StateWaitConfirmRsp + 1, 0xFF} {
		if j := JobOf(s); j != 0 {
			t.Errorf("JobOf(%v) = %v, want 0", s, j)
		}
	}
}
