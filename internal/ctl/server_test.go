package ctl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/sim"
)

func newTestServer(t *testing.T, cfg Config, scfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	s := NewServer(m, scfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestServerParallelClientsReplayEquivalence is the API-layer determinism
// drill: many goroutine clients race their submissions in, the server
// serializes them through the WAL, and a second machine rebuilt from that
// WAL alone must agree with the served one byte for byte.
func TestServerParallelClientsReplayEquivalence(t *testing.T) {
	cfg := memConfig(testOptions())
	s, ts := newTestServer(t, cfg, ServerConfig{})

	const clients = 8
	var wg sync.WaitGroup
	ids := make([]int64, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kind":"cpu","tenant":%d,"cpuCores":2,"workSeconds":1200}`, 1+i%3)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var r Response
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				errs[i] = err
				return
			}
			ids[i] = r.JobID
		}(i)
	}

	// Drive ticks until every client is answered; handlers block on their
	// batch, so the test owns the tick cadence just like cmd/coda-serve.
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	at := time.Duration(0)
	for {
		select {
		case <-donech:
		default:
			at += time.Second
			if err := s.Tick(at); err != nil {
				t.Errorf("Tick: %v", err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	seen := map[int64]bool{}
	for i, id := range ids {
		if id < 1 || id > clients || seen[id] {
			t.Fatalf("client %d got ID %d (all: %v) — IDs must be 1..%d and unique", i, id, ids, clients)
		}
		seen[id] = true
	}

	// Queries see the served state.
	resp, err := http.Get(ts.URL + "/v1/jobs/1")
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Phase == sim.PhaseUnknown {
		t.Fatalf("served job 1 reported unknown phase")
	}

	// The WAL alone rebuilds the same machine.
	horizon := 2 * time.Hour
	served := s.machine
	if err := served.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	rebuilt, recovered, err := Resume(cfg)
	if err != nil {
		t.Fatalf("Resume from served WAL: %v", err)
	}
	if !recovered {
		t.Fatal("Resume of a non-empty WAL did not report recovery")
	}
	if err := rebuilt.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	wantRes, err := served.Finish()
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := rebuilt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, got := sim.DumpResult(wantRes), sim.DumpResult(gotRes)
	if want != got {
		t.Fatalf("replayed machine diverged from served one at %s", sim.FirstDiff(want, got))
	}
	if err := gotRes.Faults.Sane(); err != nil {
		t.Fatalf("replayed counters: %v", err)
	}
}

func TestServerBackpressure(t *testing.T) {
	cfg := memConfig(testOptions())
	s, ts := newTestServer(t, cfg, ServerConfig{QueueDepth: 1, retryAfter: 2 * time.Second})

	// Fill the queue from inside (no tick runs, so it stays full).
	s.queue <- pending{req: Request{Op: OpCancel, JobID: 1}, reply: make(chan outcome, 1)}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"cpu","tenant":1,"cpuCores":1,"workSeconds":60}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", ra)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if !bytes.Contains(body, []byte("coda_serve_shed_total 1")) {
		t.Fatalf("metrics do not count the shed request:\n%s", body)
	}
}

func TestServerDeadline(t *testing.T) {
	cfg := memConfig(testOptions())
	_, ts := newTestServer(t, cfg, ServerConfig{maxWait: 5 * time.Millisecond})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"cpu","tenant":1,"cpuCores":1,"workSeconds":60}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with no tick before the deadline, want 503", resp.StatusCode)
	}
	data, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(data, []byte("outcome unknown")) {
		t.Fatalf("deadline response %s does not flag the unknown outcome", data)
	}
}

func TestServerStop(t *testing.T) {
	cfg := memConfig(testOptions())
	s, ts := newTestServer(t, cfg, ServerConfig{})
	s.Stop()
	s.Stop() // idempotent

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"cpu","tenant":1,"cpuCores":1,"workSeconds":60}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after Stop, want 503", resp.StatusCode)
	}
	// Queries still work on a stopped server.
	nresp, err := http.Get(ts.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK {
		t.Fatalf("nodes query status %d on a stopped server, want 200", nresp.StatusCode)
	}
}

func TestServerBadRequests(t *testing.T) {
	cfg := memConfig(testOptions())
	_, ts := newTestServer(t, cfg, ServerConfig{})
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad submit body", "POST", "/v1/jobs", `{"kind":`, http.StatusBadRequest},
		{"unknown submit field", "POST", "/v1/jobs", `{"kind":"cpu","tenant":1,"cpuCores":1,"workSeconds":1,"color":"red"}`, http.StatusBadRequest},
		{"trailing submit data", "POST", "/v1/jobs", `{"kind":"cpu","tenant":1,"cpuCores":1,"workSeconds":1} extra`, http.StatusBadRequest},
		{"bad cancel id", "DELETE", "/v1/jobs/zero", "", http.StatusBadRequest},
		{"negative cancel id", "DELETE", "/v1/jobs/-4", "", http.StatusBadRequest},
		{"bad status id", "GET", "/v1/jobs/xyz", "", http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs/12345", "", http.StatusNotFound},
		{"unknown node action", "POST", "/v1/nodes/1/reboot", "", http.StatusNotFound},
		{"bad node id", "POST", "/v1/nodes/banana/drain", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				data, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
		})
	}
}

func TestServerHealthz(t *testing.T) {
	cfg := memConfig(testOptions())
	s, ts := newTestServer(t, cfg, ServerConfig{})
	if err := s.Tick(time.Minute); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body struct {
		Status  string        `json:"status"`
		Now     time.Duration `json:"now"`
		Applied uint64        `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Now != time.Minute {
		t.Fatalf("healthz body %+v", body)
	}
}
