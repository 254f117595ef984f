package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"presp/internal/obs"
)

// errorEnvelope is the wire form of every API error: a stable machine
// code plus a human message, pinned by the golden-file tests. Errors
// that carry a Retry-After header (429 queue_full, 503 circuit_open)
// mirror the hint in retry_after_s so machine clients never have to
// parse headers to back off correctly.
type errorEnvelope struct {
	Error struct {
		Code       string `json:"code"`
		Message    string `json:"message"`
		RetryAfter int    `json:"retry_after_s,omitempty"`
	} `json:"error"`
}

// tenantOf resolves the calling tenant from the X-Tenant header.
// Absent means the shared "default" tenant — fine for a single-team
// deployment, while multi-tenant deployments put an authenticating
// proxy in front that stamps the header.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// Handler returns the service mux: the job API under /v1, the metrics
// scrape endpoint and the pprof handlers — one listener serves all
// three, so operating the daemon needs exactly one port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/readyz", s.handleReady)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.cfg.Observer.Metrics()))
	obs.RegisterPprof(mux)
	return mux
}

// maxSubmitBytes caps a job-spec request body. A spec is a few hundred
// bytes; the cap stops a tenant from making the daemon read an
// unbounded request.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		// A second value or stray bytes after the spec: refuse the body
		// rather than run the first spec and drop the rest.
		err = errors.New("trailing data after the spec")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decoding job spec: %v", err))
		return
	}
	job, replayed, err := s.SubmitIdempotent(tenantOf(r), r.Header.Get("Idempotency-Key"), spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if replayed {
		// The key was seen before: return the prior submission's job —
		// 200, not 202, so clients can tell a replay from an admission.
		writeJSON(w, http.StatusOK, job)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// writeSubmitError maps the typed admission errors to status codes:
// backpressure is 429 with a Retry-After hint, draining is 503, an
// invalid spec is 400.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var qf *QueueFullError
	var bad *BadSpecError
	var open *CircuitOpenError
	var mism *IdempotencyMismatchError
	switch {
	case errors.As(err, &open):
		secs := int(math.Round(open.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		writeErrorRetry(w, http.StatusServiceUnavailable, "circuit_open", open.Error(), secs)
	case errors.As(err, &mism):
		writeError(w, http.StatusConflict, "idempotency_mismatch", mism.Error())
	case errors.As(err, &qf):
		// Retry-After must be a positive integer: sub-second or negative
		// configs round to at least 1, since "0" tells well-behaved
		// clients to hammer a queue that is by definition full.
		secs := int(math.Round(s.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		writeErrorRetry(w, http.StatusTooManyRequests, "queue_full", qf.Error(), secs)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining.Error())
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, "bad_spec", bad.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.Get(tenantOf(r), r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", ErrNotFound.Error())
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.List(tenantOf(r))
	writeJSON(w, http.StatusOK, map[string][]JobView{"jobs": jobs})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(tenantOf(r), r.PathValue("id"))
	switch {
	case errors.Is(err, ErrFinished):
		// The job exists but already reached a terminal state some other
		// way — a conflict, not a missing resource.
		writeError(w, http.StatusConflict, "conflict", ErrFinished.Error())
	case err != nil:
		writeError(w, http.StatusNotFound, "not_found", ErrNotFound.Error())
	default:
		writeJSON(w, http.StatusOK, job)
	}
}

// handleHealth is liveness: the process is up and serving, so it is
// always 200 — even while draining, when in-flight work is still being
// finished and polled. Load balancers shed on readyz, not here.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	status := "ok"
	if st.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"queued":  st.Queued,
		"running": st.Running,
		"jobs":    st.Jobs,
	})
}

// handleReady is readiness: 503 once the server stops admitting work
// (draining), so load balancers route new submissions elsewhere while
// existing clients keep polling through the still-live process.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	if st.Draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client hangup mid-write is not a server error
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = msg
	writeJSON(w, status, env)
}

// writeErrorRetry is writeError for backpressure responses: the same
// hint goes out twice, as the standard Retry-After header and as
// retry_after_s inside the envelope.
func writeErrorRetry(w http.ResponseWriter, status int, code, msg string, secs int) {
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = msg
	env.Error.RetryAfter = secs
	writeJSON(w, status, env)
}
