package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"presp/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCompare checks body against testdata/<name>.golden, rewriting
// the file under -update. The JSON API is a compatibility surface;
// any drift in these bodies is a breaking change and must be deliberate.
func goldenCompare(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, body, want)
	}
}

// goldenServer is a server with a pinned clock and a deterministic stub
// flow, so every byte of the API responses is reproducible.
func goldenServer(t *testing.T, st *stubRunner, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Now = func() time.Time {
		return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	}
	s := newTestServer(t, cfg)
	s.runFlow = st.run
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestGoldenJobLifecycle(t *testing.T) {
	st := &stubRunner{}
	s, ts := goldenServer(t, st, Config{Workers: 1})

	resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_3","compress":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	goldenCompare(t, "job_accepted", body)

	waitState(t, s, "default", "j000001", StateSucceeded)
	resp, body = doJSON(t, "GET", ts.URL+"/v1/jobs/j000001", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "job_succeeded", body)
}

// TestSubmitBodyLimit: a submit body over the 1 MiB cap is a 400
// bad_request, even when it is a valid spec padded with whitespace,
// while an ordinary submit is still admitted.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := goldenServer(t, &stubRunner{}, Config{Workers: 1})
	spec := `{"preset":"SOC_2","tau":7}`

	resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", strings.Repeat(" ", 2<<20)+spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2 MiB submit status = %d, want 400: %s", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "bad_request" {
		t.Fatalf("2 MiB submit envelope = %s (%v), want code bad_request", body, err)
	}

	resp, body = doJSON(t, "POST", ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", resp.StatusCode, body)
	}
}

// TestSubmitTrailingData: a submit body must hold exactly one spec. A
// second value or stray bytes after it are a 400 bad_request instead of
// running the first spec and silently dropping the rest, while an
// ordinary submit, trailing whitespace included, is still admitted.
func TestSubmitTrailingData(t *testing.T) {
	_, ts := goldenServer(t, &stubRunner{}, Config{Workers: 1})
	for _, body := range []string{
		`{"preset":"SOC_2","tau":7} {"preset":"nope"} trailing garbage`,
		`{"preset":"SOC_2","tau":7} {}`,
		`{"preset":"SOC_2","tau":7}]`,
	} {
		resp, got := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q status = %d, want 400: %s", body, resp.StatusCode, got)
		}
		var env errorEnvelope
		if err := json.Unmarshal(got, &env); err != nil || env.Error.Code != "bad_request" {
			t.Fatalf("submit %q envelope = %s (%v), want code bad_request", body, got, err)
		}
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", "{\"preset\":\"SOC_2\",\"tau\":7}\n \t")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", resp.StatusCode, body)
	}
}

// TestSubmitRejectsRuntimeFaultOps: the flow checks only CAD ops, so a
// spec whose fault plan names a runtime op is a 400 bad_spec whose
// message names the rule, and creates no job; a CAD-only plan is
// admitted.
func TestSubmitRejectsRuntimeFaultOps(t *testing.T) {
	s, ts := goldenServer(t, &stubRunner{}, Config{Workers: 1})
	for body, rule := range map[string]string{
		`{"preset":"SOC_2","faults":"seed=1,icap=1.0,crc=1.0"}`: "icap=1",
		`{"preset":"SOC_2","faults":"synth=0.5,seu@rt_1=0.1"}`:  "seu@rt_1=0.1",
	} {
		resp, got := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s status = %d, want 400: %s", body, resp.StatusCode, got)
		}
		var env errorEnvelope
		if err := json.Unmarshal(got, &env); err != nil || env.Error.Code != "bad_spec" ||
			!strings.Contains(env.Error.Message, "rule "+rule+":") {
			t.Fatalf("submit %s envelope = %s (%v), want bad_spec naming rule %s", body, got, err, rule)
		}
	}
	if st := s.Snapshot(); st.Jobs != 0 {
		t.Fatalf("rejected specs created %d job records, want 0", st.Jobs)
	}
	body := `{"preset":"SOC_2","faults":"seed=1,synth@rt_1_rp:count=1,impl=0.3"}`
	if resp, got := doJSON(t, "POST", ts.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s status = %d, want 202: %s", body, resp.StatusCode, got)
	}
}

// TestSubmitTauUnderChooser: SoC_C's size-driven chooser picks
// semi-parallel, so a spec with no strategy and a τ outside 1 < τ < N is
// a 400 in the error envelope with the code and message a forced semi
// strategy gets (bad_spec), while an in-range τ is admitted. SOC_2's
// chooser picks fully parallel, which does not read τ.
func TestSubmitTauUnderChooser(t *testing.T) {
	_, ts := goldenServer(t, &stubRunner{}, Config{Workers: 1})
	for _, body := range []string{
		`{"preset":"SoC_C","tau":99}`,
		`{"preset":"SoC_C","tau":1}`,
		`{"preset":"SoC_C","strategy":"semi","tau":99}`,
	} {
		resp, got := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s status = %d, want 400: %s", body, resp.StatusCode, got)
		}
		var env errorEnvelope
		if err := json.Unmarshal(got, &env); err != nil || env.Error.Code != "bad_spec" ||
			!strings.Contains(env.Error.Message, "must satisfy 1 < τ < N=4") {
			t.Fatalf("submit %s envelope = %s (%v), want bad_spec with the τ range", body, got, err)
		}
	}
	for _, body := range []string{`{"preset":"SoC_C","tau":3}`, `{"preset":"SOC_2","tau":99}`} {
		if resp, got := doJSON(t, "POST", ts.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s status = %d, want 202: %s", body, resp.StatusCode, got)
		}
	}
}

// FuzzSubmitBody drives arbitrary bodies, tenants and idempotency keys
// through the HTTP handler: every response carries one of the statuses
// the submit path documents, every error comes in the error envelope,
// and nothing answers 500 or panics.
func FuzzSubmitBody(f *testing.F) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.runFlow = (&stubRunner{}).run
	f.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
	h := s.Handler()
	f.Add([]byte(`{"preset":"SOC_2","tau":7}`), "acme", "")
	f.Add([]byte(`{"preset":"SOC_2","tau":7} {"preset":"nope"} trailing garbage`), "acme", "")
	f.Add([]byte(`{"preset":"SOC_1","strategy":"semi","tau":3,"compress":true}`), "beta", "k1")
	f.Add([]byte(`{"preset":"SOC_1","strategy":"fully"}`), "beta", "k1")
	f.Add([]byte(`{"preset":"SOC_99"}`), "", "")
	f.Add([]byte(`{"preset":"SOC_1","power":9001}`), "", "")
	f.Add([]byte(`{"preset":"SOC_2","faults":"seed=7,synth@rt_1_rp:count=1","retries":-1}`), "", "")
	f.Add([]byte(`[]`), "", "")
	f.Fuzz(func(t *testing.T, body []byte, tenant, idemKey string) {
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		req.Header.Set("Idempotency-Key", idemKey)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusAccepted:
			var v JobView
			if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || v.ID == "" {
				t.Fatalf("status %d with body %s (%v), want a job view", w.Code, w.Body, err)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var env errorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d with body %s (%v), want the error envelope", w.Code, w.Body, err)
			}
		default:
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body)
		}
	})
}

func TestGoldenErrorEnvelopes(t *testing.T) {
	st := &stubRunner{started: make(chan int, 1), gate: make(chan struct{})}
	s, ts := goldenServer(t, st, Config{Workers: 1, QueueDepth: 1})

	t.Run("bad spec", func(t *testing.T) {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_99"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		goldenCompare(t, "error_bad_spec", body)
	})

	t.Run("unknown field", func(t *testing.T) {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_1","power":9001}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		goldenCompare(t, "error_unknown_field", body)
	})

	t.Run("not found", func(t *testing.T) {
		resp, body := doJSON(t, "GET", ts.URL+"/v1/jobs/j999999", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404: %s", resp.StatusCode, body)
		}
		goldenCompare(t, "error_not_found", body)
	})

	t.Run("queue full", func(t *testing.T) {
		// Pin the worker, fill the single queue slot, then overflow.
		for tau := 1; tau <= 2; tau++ {
			resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
				fmt.Sprintf(`{"preset":"SOC_1","tau":%d}`, tau))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("setup submit tau=%d: %d %s", tau, resp.StatusCode, body)
			}
			if tau == 1 {
				<-st.started
			}
		}
		resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_1","tau":3}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("Retry-After = %q, want \"1\"", ra)
		}
		goldenCompare(t, "error_queue_full", body)
		close(st.gate)
	})

	t.Run("retry-after rounding", func(t *testing.T) {
		// Retry-After is an integer-seconds header: sub-second (and,
		// defensively, negative) configs must clamp to 1 — "0" invites
		// clients to hammer a full queue — and everything else rounds to
		// the nearest second.
		cases := []struct {
			d    time.Duration
			want string
		}{
			{400 * time.Millisecond, "1"},
			{time.Second, "1"},
			{1500 * time.Millisecond, "2"},
			{2400 * time.Millisecond, "2"},
			{-3 * time.Second, "1"},
		}
		for _, c := range cases {
			srv := &Server{cfg: Config{RetryAfter: c.d}}
			w := httptest.NewRecorder()
			srv.writeSubmitError(w, &QueueFullError{Depth: 1})
			if w.Code != http.StatusTooManyRequests {
				t.Errorf("RetryAfter=%v: status = %d, want 429", c.d, w.Code)
			}
			if got := w.Header().Get("Retry-After"); got != c.want {
				t.Errorf("RetryAfter=%v: header = %q, want %q", c.d, got, c.want)
			}
		}
	})

	t.Run("draining", func(t *testing.T) {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_1"}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
		}
		goldenCompare(t, "error_draining", body)
	})
}

// TestGoldenHealthAndReadiness pins the liveness/readiness split:
// healthz answers 200 for the whole life of the process — including a
// drain, when in-flight work is still being served — while readyz flips
// to 503 the moment admission stops, so load balancers shed traffic
// before shutdown without killing the pod under it.
func TestGoldenHealthAndReadiness(t *testing.T) {
	st := &stubRunner{}
	s, ts := goldenServer(t, st, Config{Workers: 1})

	resp, body := doJSON(t, "GET", ts.URL+"/v1/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "healthz_ok", body)

	resp, body = doJSON(t, "GET", ts.URL+"/v1/readyz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "readyz_ok", body)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Liveness survives the drain; readiness does not.
	resp, body = doJSON(t, "GET", ts.URL+"/v1/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200 (liveness must survive a drain): %s", resp.StatusCode, body)
	}
	goldenCompare(t, "healthz_draining", body)

	resp, body = doJSON(t, "GET", ts.URL+"/v1/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "readyz_draining", body)
}

// TestGoldenCancelConflict pins the 409-vs-404 split on DELETE.
func TestGoldenCancelConflict(t *testing.T) {
	st := &stubRunner{}
	s, ts := goldenServer(t, st, Config{Workers: 1})

	resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	waitState(t, s, "default", "j000001", StateSucceeded)

	resp, body = doJSON(t, "DELETE", ts.URL+"/v1/jobs/j000001", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished = %d, want 409: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "error_conflict", body)
}

// TestGoldenCircuitOpen pins the breaker's 503 envelope and its
// Retry-After header.
func TestGoldenCircuitOpen(t *testing.T) {
	st := &stubRunner{err: fmt.Errorf("synthetic failure")}
	s, ts := goldenServer(t, st, Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: 30 * time.Second})

	for i := 1; i <= 2; i++ {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_1"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, body)
		}
		waitState(t, s, "default", fmt.Sprintf("j%06d", i), StateFailed)
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"preset":"SOC_1"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit = %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "30" {
		t.Errorf("Retry-After = %q, want \"30\"", ra)
	}
	goldenCompare(t, "error_circuit_open", body)
}

// TestGoldenIdempotentReplay pins the Idempotency-Key surface: first
// submission 202, replay 200 with the same job (idempotency_key in the
// body), mismatched reuse 409.
func TestGoldenIdempotentReplay(t *testing.T) {
	st := &stubRunner{}
	s, ts := goldenServer(t, st, Config{Workers: 1})

	post := func(body, key string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := post(`{"preset":"SOC_3","compress":true}`, "build-42")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "job_accepted_idempotent", body)
	waitState(t, s, "default", "j000001", StateSucceeded)

	resp, body = post(`{"preset":"SOC_3","compress":true}`, "build-42")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay = %d, want 200: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "job_replayed_idempotent", body)

	resp, body = post(`{"preset":"SOC_3"}`, "build-42")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched reuse = %d, want 409: %s", resp.StatusCode, body)
	}
	goldenCompare(t, "error_idempotency_mismatch", body)
}

// TestGoldenRecoveredViews pins what recovery rebuilds, byte for byte.
// For every prefix of the crash battery's WAL, a server with a pinned
// clock recovers the log, and every job's view is recorded twice: once
// right after Recover, with the first requeued flight held at the
// runner, and once every job is terminal.
func TestGoldenRecoveredViews(t *testing.T) {
	recs := buildScenarioWAL(t)
	pinned := func() time.Time { return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC) }
	views := func(s *Server) []JobView {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]JobView, 0, len(s.jobs))
		for _, id := range report.SortedKeys(s.jobs) {
			out = append(out, s.jobs[id].viewLocked())
		}
		return out
	}
	var golden bytes.Buffer
	dump := func(phase string, vs []JobView) {
		fmt.Fprintf(&golden, "  %s\n", phase)
		for _, v := range vs {
			line, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&golden, "    %s\n", line)
		}
	}
	for k := 0; k <= len(recs); k++ {
		var img bytes.Buffer
		for _, r := range recs[:k] {
			enc, err := encodeWALRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			img.Write(enc)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), img.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		st := &stubRunner{gate: make(chan struct{}), started: make(chan int, 16)}
		s := newTestServer(t, Config{Workers: 1, StateDir: dir, Now: pinned})
		s.runFlow = st.run
		stats, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&golden, "prefix %02d: %+v\n", k, stats)
		if stats.Requeued > 0 {
			<-st.started
		}
		dump("recovered", views(s))
		close(st.gate)
		deadline := time.Now().Add(10 * time.Second)
		for {
			vs := views(s)
			done := true
			for _, v := range vs {
				done = done && v.State.terminal()
			}
			if done {
				dump("terminal", vs)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("prefix %d: jobs never finished: %+v", k, vs)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	goldenCompare(t, "recovered_views", golden.Bytes())
}
