package obs

import (
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
)

// AttachPprof mounts the net/http/pprof handlers under /debug/pprof/
// on the given mux (importing net/http/pprof also registers them on
// http.DefaultServeMux, which nothing here serves). The admin surface (aimt-serve -admin) combines
// this with the obs handler, so live runs can be profiled without the
// file-based -cpuprofile/-memprofile flags:
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
}

// StartProfile begins CPU profiling to cpuPath (if non-empty) and
// returns a stop function that ends the CPU profile and writes a heap
// profile to memPath (if non-empty). Either path may be empty; the
// stop function is always safe to call exactly once. aimt-serve and
// aimt-bench back their -cpuprofile/-memprofile flags with it, so any
// sweep or serving run can be profiled without recompiling:
//
//	aimt-serve -requests 20000 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -top cpu.pprof
func StartProfile(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
