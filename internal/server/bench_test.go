package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// BenchmarkSubmitWarm times one warm submit end to end, in process: an
// HTTP POST of a spec whose every stage the server's caches already
// hold, a wait for the job to finish, then the HTTP GET of the done
// job. The spec is primed once before the timer starts, so each
// iteration pays admission (compile and the single-flight key), graph
// construction from cached stages and the two JSON round trips, not
// CAD work. The wait reads the job's state without building a view: an
// HTTP or Get poll loop would add a varying number of allocating calls
// to every iteration. Run it with -cpu=1 (as bench-smoke does): on two
// CPUs the hand-off to the worker goroutine, not the work, sets ns/op.
func BenchmarkSubmitWarm(b *testing.B) {
	s := New(Config{Workers: 1, JobWorkers: 1})
	b.Cleanup(func() { s.Shutdown(context.Background()) }) //nolint:errcheck
	h := s.Handler()
	body, err := json.Marshal(Spec{Preset: "SOC_2", Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	roundTrip := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var v JobView
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			b.Fatalf("submit: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		for !s.jobState(v.ID).terminal() {
			runtime.Gosched()
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID, nil))
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			b.Fatalf("get %s: HTTP %d: %s", v.ID, rec.Code, rec.Body.Bytes())
		}
		if v.State != StateSucceeded {
			b.Fatalf("job %s: %s (%s)", v.ID, v.State, v.Error)
		}
	}
	roundTrip() // prime the checkpoint and stage caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// jobState reads job id's state under the server mutex.
func (s *Server) jobState(id string) JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].State
}
