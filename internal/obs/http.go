package obs

import (
	"encoding/json"
	"net/http"
)

// SnapshotTail is how many ledger entries /debug/snapshot includes.
const SnapshotTail = 256

// snapshotBody is the /debug/snapshot JSON schema: the full registry
// plus the ledger summary and tail.
type snapshotBody struct {
	Metrics Snapshot       `json:"metrics"`
	Ledger  *LedgerSummary `json:"ledger,omitempty"`
	Tail    []Decision     `json:"ledger_tail,omitempty"`
}

// Handler returns the admin HTTP mux:
//
//	/metrics         Prometheus text exposition of the registry,
//	                 Go runtime health (aimt_runtime_*) sampled at
//	                 each scrape
//	/healthz         liveness probe ("ok")
//	/debug/snapshot  full registry + ledger tail as JSON
//
// led may be nil; the snapshot then omits the ledger section. pprof
// endpoints are attached separately (AttachPprof), only where the
// caller opts in.
func Handler(reg *Registry, led *Ledger) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	sampleRuntime := AttachRuntime(reg)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		sampleRuntime()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		body := snapshotBody{Metrics: reg.Snapshot()}
		if led != nil {
			sum := led.Summary()
			body.Ledger = &sum
			body.Tail = led.Tail(SnapshotTail)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
	return mux
}
