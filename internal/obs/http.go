package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
)

// Handler serves the observability endpoints:
//
//	/metrics        Prometheus text format
//	/metrics.json   JSON snapshot of the same registry
//	/debug/trace    recent finished spans as a JSON forest (nested children)
//	/debug/pprof/   Go runtime profiles (heap, goroutine, CPU, trace, ...)
//
// Either argument may be nil; the corresponding endpoint serves an empty
// document. The pprof routes are wired explicitly (this mux never uses
// http.DefaultServeMux) so profiling a live tuning process needs no extra
// listener.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		forest := BuildForest(tr.Recent())
		if forest == nil {
			forest = []*SpanNode{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(forest)
	})
	return mux
}

// Serve starts an HTTP server for the observability endpoints on addr and
// returns it (already listening; shut down with server.Close). The listen
// error, if any, is returned synchronously so a bad --metrics-addr fails
// fast instead of dying in a goroutine. The returned server's Addr holds
// the bound address, so addr may use port 0 to pick a free port.
func Serve(addr string, reg *Registry, tr *Tracer) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(reg, tr)}
	// srv.Serve returns when the listener closes: server.Close stops it.
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}

// SpanNode is a span with its children resolved, for trace rendering.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildForest nests flat span records into parent→child trees, ordered by
// start time. Spans whose parent is absent (evicted from the ring or still
// open) surface as roots.
func BuildForest(spans []SpanData) []*SpanNode {
	nodes := make(map[uint64]*SpanNode, len(spans))
	for _, d := range spans {
		nodes[d.SpanID] = &SpanNode{SpanData: d}
	}
	var roots []*SpanNode
	for _, d := range spans {
		n := nodes[d.SpanID]
		if parent, ok := nodes[d.ParentID]; ok && d.ParentID != d.SpanID {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartU < ns[j].StartU })
	}
	byStart(roots)
	for _, n := range nodes {
		byStart(n.Children)
	}
	return roots
}
