package live

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/telemetry"
)

// Status is the /statusz document: the node's protocol role and state
// snapshot plus every metric. Role is "holder" while the node is inside
// (or its application holds) the critical section, "arbiter" while it is
// collecting requests, "waiting" with requests outstanding, else "idle".
//
// For algorithms without core introspection the document degrades: Algo,
// ID, N, Role (holder/waiting/idle from the live runtime's own view),
// uptime, grant counts and metrics are filled; the protocol-state fields
// stay zero.
type Status struct {
	ID            int     `json:"id"`
	N             int     `json:"n"`
	Algo          string  `json:"algo,omitempty"`
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Arbiter     int    `json:"arbiter"`
	Monitor     int    `json:"monitor"`
	HasToken    bool   `json:"has_token"`
	InCS        bool   `json:"in_cs"`
	Forwarding  bool   `json:"forwarding"`
	Epoch       uint64 `json:"epoch"`
	LastFence   uint64 `json:"last_fence"`
	MaxFence    uint64 `json:"max_fence"`
	BatchLen    int    `json:"batch_len"`
	StoredLen   int    `json:"stored_len"`
	Outstanding int    `json:"outstanding"`

	Granted  uint64 `json:"granted"`
	Released uint64 `json:"released"`

	Metrics telemetry.Snapshot `json:"metrics"`
}

// Status assembles the /statusz document, taking the protocol snapshot
// under the executor's exclusion. Algorithms without core introspection get the
// degraded generic document rather than an error.
func (n *Node) Status(ctx context.Context) (Status, error) {
	ins, err := n.Inspect(ctx)
	if errors.Is(err, ErrNotCore) {
		granted, released := n.Stats()
		role := "idle"
		switch {
		case n.holding.Load():
			role = "holder"
		case n.metrics.lockWaiters.Value() > 0:
			role = "waiting"
		}
		return Status{
			ID:            n.cfg.ID,
			N:             n.cfg.N,
			Algo:          n.cfg.Algo,
			Role:          role,
			UptimeSeconds: time.Since(n.start).Seconds(),
			Granted:       granted,
			Released:      released,
			Metrics:       n.reg.Snapshot(),
		}, nil
	}
	if err != nil {
		return Status{}, err
	}
	granted, released := n.Stats()
	role := "idle"
	switch {
	case ins.InCS || n.holding.Load():
		role = "holder"
	case ins.IsArbiter:
		role = "arbiter"
	case ins.Outstanding > 0:
		role = "waiting"
	}
	return Status{
		ID:            n.cfg.ID,
		N:             n.cfg.N,
		Algo:          n.cfg.Algo,
		Role:          role,
		UptimeSeconds: time.Since(n.start).Seconds(),
		Arbiter:       ins.Arbiter,
		Monitor:       ins.Monitor,
		HasToken:      ins.HasToken,
		InCS:          ins.InCS,
		Forwarding:    ins.Forwarding,
		Epoch:         ins.Epoch,
		LastFence:     ins.LastFence,
		MaxFence:      ins.MaxFence,
		BatchLen:      ins.BatchLen,
		StoredLen:     ins.StoredLen,
		Outstanding:   ins.Outstanding,
		Granted:       granted,
		Released:      released,
		Metrics:       n.reg.Snapshot(),
	}, nil
}

// AdminHandler returns the node's admin HTTP surface:
//
//	/healthz         liveness: 200 "ok" while the node runs, 503 once closed
//	/metrics         Prometheus text exposition of the telemetry registry
//	/statusz         JSON Status document (role, protocol state, metrics)
//	/debug/trace     recent protocol transitions as JSONL, oldest first;
//	                 ?kind=K keeps only events of that kind, ?format=json
//	                 returns one JSON array instead of JSONL
//	/debug/requests  recent completed request traces (Config.Tracer):
//	                 totals, the ?n= most recent, and the ?n= slowest by
//	                 lock-wait with per-phase breakdowns; 404 when request
//	                 tracing is disabled
//	/debug/pprof/    the runtime profiles of net/http/pprof (CPU, heap,
//	                 goroutine, execution trace, ...)
//
// Mount it on any mux or serve it directly; cmd/mutexnode's -http flag
// does the latter.
func (n *Node) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if n.closed.Load() {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = n.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		st, err := n.Status(ctx)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if n.trace == nil {
			http.Error(w, "tracing disabled (Config.TraceDepth < 0)", http.StatusNotFound)
			return
		}
		writeTraceRing(w, r, n.trace)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		writeRequests(w, r, n.tracer)
	})
	mountPprof(mux)
	return mux
}

// mountPprof serves the net/http/pprof profiles under /debug/pprof/ on
// mux. They are mounted explicitly because importing the package only
// registers them on http.DefaultServeMux, which the admin surfaces do
// not use.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// writeTraceRing serves a protocol-transition ring, honoring the
// ?kind= filter (exact event-kind match) and ?format=json (one JSON
// array instead of JSONL) query parameters.
func writeTraceRing(w http.ResponseWriter, r *http.Request, ring *telemetry.Ring) {
	events := ring.Events()
	if kind := r.URL.Query().Get("kind"); kind != "" {
		kept := make([]telemetry.TraceEvent, 0, len(events))
		for _, ev := range events {
			if ev.Kind == kind {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, ev := range events {
		_ = enc.Encode(ev)
	}
}

// RequestsDoc is the /debug/requests document: collector totals, the
// most recent completed traces, and the slowest by lock-wait time, each
// summarized with its per-phase breakdown.
type RequestsDoc struct {
	Completed uint64             `json:"completed"`
	Open      uint64             `json:"open"`
	Dropped   uint64             `json:"dropped"`
	Recent    []reqtrace.Summary `json:"recent"`
	Slowest   []reqtrace.Summary `json:"slowest"`
}

// buildRequestsDoc assembles the document; keyed restricts both lists to
// traces of one lock key (shared collectors hold every key's traces).
func buildRequestsDoc(c *reqtrace.Collector, key string, keyed bool, n int) RequestsDoc {
	var doc RequestsDoc
	doc.Completed, doc.Open, doc.Dropped = c.Totals()
	done := c.Completed()
	if keyed {
		kept := make([]reqtrace.Trace, 0, len(done))
		for _, t := range done {
			if t.Key == key {
				kept = append(kept, t)
			}
		}
		done = kept
	}
	start := len(done) - n
	if start < 0 {
		start = 0
	}
	for _, t := range done[start:] {
		doc.Recent = append(doc.Recent, t.Summarize())
	}
	var slow []reqtrace.Trace
	if keyed {
		slow = c.SlowestFor(key, n)
	} else {
		slow = c.Slowest(n)
	}
	for _, t := range slow {
		doc.Slowest = append(doc.Slowest, t.Summarize())
	}
	return doc
}

// writeRequests serves /debug/requests from the given collector,
// honoring ?n= (list depth, default 5) and ?key= (restrict to one lock
// key) query parameters.
func writeRequests(w http.ResponseWriter, r *http.Request, c *reqtrace.Collector) {
	if c == nil {
		http.Error(w, "request tracing disabled (no Tracer configured)", http.StatusNotFound)
		return
	}
	depth := 5
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			depth = v
		}
	}
	key, keyed := queryKey(r)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(buildRequestsDoc(c, key, keyed, depth))
}
