package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
)

// ServerConfig wires a live farm into the introspection endpoint.
type ServerConfig struct {
	// Counters is the farm's counter set; nil serves zeros.
	Counters *Counters
	// Snapshot, when set, returns the value served as JSON under
	// /snapshot — typically the farm's live Aggregator snapshot.
	Snapshot func() any
}

// expvar names are process-global, so the "l2farm" var is published
// once and re-pointed at the most recent server's counters.
var (
	publishOnce     sync.Once
	currentCounters atomic.Pointer[Counters]
)

func publishCounters(c *Counters) {
	if c != nil {
		currentCounters.Store(c)
	}
	publishOnce.Do(func() {
		expvar.Publish("l2farm", expvar.Func(func() any {
			return currentCounters.Load().Snapshot()
		}))
	})
}

// NewHandler builds the introspection mux:
//
//	/              index of the routes below
//	/debug/vars    expvar JSON (counters under "l2farm", plus memstats)
//	/metrics       the counters in Prometheus text format
//	/snapshot      cfg.Snapshot() as JSON (404 when unset)
//	/debug/pprof/  net/http/pprof
func NewHandler(cfg ServerConfig) http.Handler {
	publishCounters(cfg.Counters)
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "l2farm telemetry\n\n/debug/vars\n/metrics\n/snapshot\n/debug/pprof/\n")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writePrometheus(w, cfg.Counters.Snapshot())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Snapshot == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writePrometheus(w http.ResponseWriter, s CounterSnapshot) {
	vals := map[string]int64{
		"frames":       s.Frames,
		"bytes":        s.Bytes,
		"packets":      s.Packets,
		"malformed":    s.Malformed,
		"mutations":    s.Mutations,
		"findings":     s.Findings,
		"jobs_started": s.JobsStarted,
		"jobs_done":    s.JobsDone,
		"jobs_failed":  s.JobsFailed,
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE l2farm_%s_total counter\n", name)
		fmt.Fprintf(w, "l2farm_%s_total %d\n", name, vals[name])
	}
}

// Server is a running introspection endpoint.
type Server struct {
	// Addr is the actual listen address (useful with ":0").
	Addr string

	ln  net.Listener
	srv *http.Server
}

// Serve starts the introspection endpoint on addr. The server runs
// until Close; serve errors after Close are discarded.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: NewHandler(cfg)},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the server and its listener.
func (s *Server) Close() error {
	return s.srv.Close()
}
