package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"syscall"
	"testing"
	"time"
)

func TestNamedPaths(t *testing.T) {
	np := namedPaths{}
	if err := np.Set("prod=cat.json"); err != nil {
		t.Fatal(err)
	}
	if np["prod"] != "cat.json" {
		t.Fatalf("np = %v", np)
	}
	for _, bad := range []string{"noequals", "=path", "name=", "prod=again.json"} {
		if err := np.Set(bad); err == nil {
			t.Errorf("Set(%q) succeeded", bad)
		}
	}
}

// TestHTTPServerTimeouts pins the daemon's connection timeouts: a client
// that never finishes its headers, or idles on a keep-alive connection,
// does not hold the connection forever, and a long solve is never cut
// off mid-response.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v, want none", srv.WriteTimeout, srv.ReadTimeout)
	}
}

func TestRunRejectsArgs(t *testing.T) {
	if err := run([]string{"positional"}, nil); err == nil {
		t.Fatal("run with positional arguments succeeded")
	}
}

func TestRunBadLibrary(t *testing.T) {
	if err := run([]string{"-catalog", "x=/nonexistent.json"}, nil); err == nil {
		t.Fatal("run with unreadable catalog succeeded")
	}
}

// TestRunServesAndShutsDown boots the daemon on an ephemeral port,
// schedules over HTTP, and stops it with SIGTERM.
func TestRunServesAndShutsDown(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}

	resp, err := http.Post("http://"+addr+"/schedule?workflow=example&catalog=paper&budget_fraction=0.5",
		"application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Makespan float64        `json:"makespan"`
		Schedule []int          `json:"schedule"`
		Extra    map[string]any `json:"-"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: status %d, err %v", resp.StatusCode, err)
	}
	if body.Makespan <= 0 || len(body.Schedule) == 0 {
		t.Fatalf("implausible response: %+v", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}
