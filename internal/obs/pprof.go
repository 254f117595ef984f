package obs

import (
	"fmt"
	"net"
	"net/http"
)

// StartPprof serves the standard pprof endpoints (/debug/pprof/...) on
// addr using a dedicated mux, so long-running CLIs can opt in without
// touching http.DefaultServeMux. It returns the bound address (useful
// with ":0") and a shutdown func that closes the listener.
func StartPprof(addr string) (string, func() error, error) {
	mux := http.NewServeMux()
	RegisterPprof(mux)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: pprof listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns when the listener closes.
	return ln.Addr().String(), srv.Close, nil
}
