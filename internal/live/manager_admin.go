package live

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"tokenarbiter/internal/telemetry"
)

// ManagerStatus is the Manager's aggregate /statusz document: the
// service-level identity, totals across every key, and each key's
// summary row. A single key's full protocol Status (role, arbiter,
// epoch, fences, per-key metrics) is served by /statusz?key=K instead —
// one document per key keeps the aggregate view bounded as keys grow.
type ManagerStatus struct {
	ID            int     `json:"id"`
	N             int     `json:"n"`
	Algo          string  `json:"algo,omitempty"`
	Shards        int     `json:"shards"`
	KeyCount      int     `json:"key_count"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Granted  uint64 `json:"granted"`
	Released uint64 `json:"released"`

	Keys []KeyStat `json:"keys"`

	Metrics telemetry.Snapshot `json:"metrics"` // manager-level registry
}

// Status assembles the aggregate /statusz document.
func (m *Manager) Status() ManagerStatus {
	stats := m.KeyStats()
	st := ManagerStatus{
		ID:            m.cfg.ID,
		N:             m.cfg.N,
		Algo:          m.cfg.Algo,
		Shards:        len(m.shards),
		KeyCount:      len(stats),
		UptimeSeconds: time.Since(m.start).Seconds(),
		Keys:          stats,
		Metrics:       m.reg.Snapshot(),
	}
	for _, ks := range stats {
		st.Granted += ks.Granted
		st.Released += ks.Released
	}
	return st
}

// keyStatus wraps one key's node Status with the manager-level identity
// of the instance serving it.
type keyStatus struct {
	Key         string `json:"key"`
	Shard       int    `json:"shard"`
	Incarnation uint64 `json:"incarnation"`
	Status
}

// AdminHandler returns the multi-key admin HTTP surface, the Manager
// analogue of Node.AdminHandler:
//
//	/healthz              liveness: 200 "ok" while the service runs, 503 once closed
//	/metrics              aggregate Prometheus exposition: the manager registry's
//	                      own series plus every key's registry with a key="..."
//	                      label (metric-major, one HELP/TYPE per name)
//	/statusz              aggregate JSON ManagerStatus (totals + per-key rows)
//	/statusz?key=K        key K's full protocol Status (wrapped with key/shard/
//	                      incarnation); 404 when the key does not exist here
//	/debug/trace?key=K    key K's recent protocol transitions as JSONL;
//	                      ?kind= and ?format=json as on Node.AdminHandler
//	/debug/requests       recent completed request traces from the shared
//	                      collector (ManagerConfig.Tracer), ?n= deep;
//	                      ?key=K restricts to one lock key's traces
//	/debug/pprof/         the runtime profiles, as on Node.AdminHandler
func (m *Manager) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if m.closed.Load() {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := m.reg.WritePrometheus(w); err != nil {
			return
		}
		var regs []telemetry.LabeledRegistry
		for _, inst := range m.snapshotInstances() {
			regs = append(regs, telemetry.LabeledRegistry{Value: inst.key, Reg: inst.reg})
		}
		_ = telemetry.WritePrometheusMulti(w, "key", regs)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		key, keyed := queryKey(r)
		if !keyed {
			_ = enc.Encode(m.Status())
			return
		}
		inst := m.lookup(key)
		if inst == nil {
			http.Error(w, fmt.Sprintf("unknown lock key %q", key), http.StatusNotFound)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		st, err := inst.node.Status(ctx)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		_ = enc.Encode(keyStatus{
			Key:         inst.key,
			Shard:       inst.shard,
			Incarnation: inst.incarnation,
			Status:      st,
		})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		key, keyed := queryKey(r)
		if !keyed {
			http.Error(w, "which key? pass ?key=K (see /statusz for the live keys)", http.StatusBadRequest)
			return
		}
		inst := m.lookup(key)
		if inst == nil {
			http.Error(w, fmt.Sprintf("unknown lock key %q", key), http.StatusNotFound)
			return
		}
		tr := inst.node.Trace()
		if tr == nil {
			http.Error(w, "tracing disabled (ManagerConfig.TraceDepth < 0)", http.StatusNotFound)
			return
		}
		writeTraceRing(w, r, tr)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		writeRequests(w, r, m.cfg.Tracer)
	})
	mountPprof(mux)
	return mux
}

// queryKey extracts the ?key= parameter, distinguishing an absent
// parameter from the present-but-empty one — "" is the legacy key-less
// channel, a legal key an operator may want to inspect.
func queryKey(r *http.Request) (string, bool) {
	vals, ok := r.URL.Query()["key"]
	if !ok || len(vals) == 0 {
		return "", false
	}
	return vals[0], true
}
