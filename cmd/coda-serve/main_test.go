package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/ctl"
)

// syncBuffer lets the test poll output while run() is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestFlagErrorsExitTwo: malformed invocations are tool errors (exit 2)
// and never reach the listener.
func TestFlagErrorsExitTwo(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-tick", "0s"},
		{"-tick", "-1s"},
		{"-queue-depth", "0"},
		{"-checkpoint-every", "-1"},
		{"-sched", "bogus", "-data", filepath.Join(dir, "a")},
		{"-nodes", "0", "-data", filepath.Join(dir, "b")},
		{"-not-a-flag"},
		{"stray", "args"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("coda-serve %s: exit %d, want 2 (stderr: %s)",
				strings.Join(args, " "), code, errb.String())
		}
	}
}

// waitForOutput polls the buffer until the marker appears.
func waitForOutput(t *testing.T, buf *syncBuffer, marker string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := buf.String(); strings.Contains(s, marker) {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %q in output:\n%s", marker, buf.String())
	return ""
}

// listenAddr extracts the bound address from the startup banner.
func listenAddr(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "coda-serve: listening on "); ok {
			return strings.Fields(rest)[0]
		}
	}
	t.Fatalf("no listen banner in output:\n%s", out)
	return ""
}

// interrupt delivers SIGINT to this process; run()'s signal.Notify
// swallows it, so the test binary survives.
func interrupt(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("self-SIGINT: %v", err)
	}
}

// TestServeKillRecover drives the real binary path twice over one data
// directory: serve a few jobs, shut down, then restart and confirm the
// machine recovered every applied request from checkpoint + WAL replay.
func TestServeKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a live HTTP server")
	}
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data", dir,
		"-tick", "10ms",
		"-nodes", "4",
		"-checkpoint-every", "2",
	}

	// First life: fresh start, three submits, one cancel.
	out := &syncBuffer{}
	done := make(chan int, 1)
	go func() { done <- run(args, out, io.Discard) }()
	banner := waitForOutput(t, out, "listening on ")
	if !strings.Contains(banner, "fresh start") {
		t.Fatalf("first life did not report a fresh start:\n%s", banner)
	}
	base := "http://" + listenAddr(t, banner)

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"kind":"cpu","tenant":1,"cpuCores":2,"workSeconds":%d}`, 600+i)
		resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		var r struct {
			JobID int64 `json:"jobId"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatalf("submit %d: decode: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || r.JobID != int64(i+1) {
			t.Fatalf("submit %d: status %d job %d", i, resp.StatusCode, r.JobID)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/3", nil)
	resp, err := client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v status %v", err, resp)
	}
	resp.Body.Close()

	interrupt(t)
	if code := <-done; code != 0 {
		t.Fatalf("first life exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "after 4 requests") {
		t.Fatalf("first life did not apply 4 requests:\n%s", out.String())
	}

	// Second life: same data directory must recover all four requests.
	out2 := &syncBuffer{}
	go func() { done <- run(args, out2, io.Discard) }()
	banner2 := waitForOutput(t, out2, "listening on ")
	if !strings.Contains(banner2, "recovered 4 applied requests") {
		t.Fatalf("second life did not recover the log:\n%s", banner2)
	}
	base2 := "http://" + listenAddr(t, banner2)

	// The recovered machine answers queries about pre-crash jobs.
	st, err := client.Get(base2 + "/v1/jobs/1")
	if err != nil {
		t.Fatalf("status after recovery: %v", err)
	}
	var js struct {
		Phase string `json:"phase"`
	}
	if err := json.NewDecoder(st.Body).Decode(&js); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusOK || js.Phase == "" {
		t.Fatalf("job 1 after recovery: status %d phase %q", st.StatusCode, js.Phase)
	}

	interrupt(t)
	if code := <-done; code != 0 {
		t.Fatalf("second life exited %d:\n%s", code, out2.String())
	}
}

// TestHTTPServerTimeouts: the server coda-serve listens with bounds how
// long a client may take to send its headers and how long a keep-alive
// connection may idle, and sets no write timeout, because handlers block
// until the next tick.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", srv.WriteTimeout)
	}
}

// failingListener fails every Accept, as a listener whose socket broke.
type failingListener struct{ net.Listener }

func (failingListener) Accept() (net.Conn, error) { return nil, errors.New("listener broke") }

// TestServeFailureExitsOne: when the HTTP server fails on its own, serve
// stops the ticker and exits 1 at once instead of waiting for a signal.
func TestServeFailureExitsOne(t *testing.T) {
	f, err := parseFlags([]string{"-data", t.TempDir(), "-nodes", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg, log, err := buildConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	m, _, err := ctl.Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- serve(m, ctl.NewServer(m, ctl.ServerConfig{}), failingListener{ln}, time.Hour, make(chan os.Signal), &errb)
	}()
	select {
	case code := <-done:
		if code != 1 {
			t.Fatalf("exit = %d, want 1", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve kept running after the HTTP server failed")
	}
	if !strings.Contains(errb.String(), "listener broke") {
		t.Errorf("stderr does not report the serve error: %q", errb.String())
	}
}
