package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestHandlerEndpoints(t *testing.T) {
	var c Counters
	c.Merge(CounterSnapshot{Frames: 1, Bytes: 128, Packets: 42})
	c.AddFindings(1)
	h := NewHandler(ServerConfig{
		Counters: &c,
		Snapshot: func() any { return map[string]int{"completed": 3} },
	})

	if code, body := get(t, h, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}

	code, body := get(t, h, "/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars code = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}
	raw, ok := vars["l2farm"]
	if !ok {
		t.Fatal("/debug/vars missing l2farm")
	}
	var snap CounterSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("l2farm var not a CounterSnapshot: %v", err)
	}
	if snap.Frames != 1 || snap.Bytes != 128 || snap.Packets != 42 || snap.Findings != 1 {
		t.Fatalf("l2farm var = %+v", snap)
	}

	code, body = get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics code = %d", code)
	}
	for _, want := range []string{
		"l2farm_frames_total 1",
		"l2farm_bytes_total 128",
		"l2farm_packets_total 42",
		"l2farm_findings_total 1",
		"# TYPE l2farm_packets_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, h, "/snapshot")
	if code != 200 || !strings.Contains(body, `"completed": 3`) {
		t.Fatalf("/snapshot: code=%d body=%q", code, body)
	}

	if code, body = get(t, h, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}

	if code, _ = get(t, h, "/no-such"); code != 404 {
		t.Fatalf("unknown path code = %d, want 404", code)
	}
}

func TestHandlerNoSnapshot(t *testing.T) {
	h := NewHandler(ServerConfig{})
	if code, _ := get(t, h, "/snapshot"); code != 404 {
		t.Fatalf("/snapshot without provider = %d, want 404", code)
	}
	// nil Counters serve zeros rather than panicking.
	if code, body := get(t, h, "/metrics"); code != 200 || !strings.Contains(body, "l2farm_packets_total 0") {
		t.Fatalf("/metrics with nil counters: code=%d body=%q", code, body)
	}
}

func TestServe(t *testing.T) {
	var c Counters
	c.Merge(CounterSnapshot{Packets: 1})
	s, err := Serve("127.0.0.1:0", ServerConfig{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "l2farm_packets_total 1") {
		t.Fatalf("live /metrics: code=%d body=%q", resp.StatusCode, body)
	}
}
