package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tlacache/internal/service"
)

// syncBuffer is a bytes.Buffer that the daemon goroutine writes while
// a test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs runDaemon on an ephemeral port and returns its base
// URL and its stdout; cleanup cancels the daemon and waits for a clean
// exit.
func startDaemon(t *testing.T, extra ...string) (string, *syncBuffer) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	var out, errOut syncBuffer
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-cache-dir", filepath.Join(dir, "cache"),
		"-drain", "30s",
	}, extra...)
	go func() { done <- runDaemon(ctx, args, &out, &errOut) }()
	t.Cleanup(func() {
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Errorf("daemon exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
			}
		case <-time.After(60 * time.Second):
			t.Error("daemon did not shut down")
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return "http://" + strings.TrimSpace(string(data)), &out
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never wrote %s\nstderr: %s", addrFile, errOut.String())
	return "", nil
}

// The full loop: daemon up, submit via the client (miss), resubmit
// (hit, identical bytes), fetch by key, read stats.
func TestDaemonEndToEnd(t *testing.T) {
	base, _ := startDaemon(t)
	submitArgs := []string{"-server", base, "-wait",
		"-apps", "sje,lib", "-n", "30000", "-w", "0"}

	var out1, err1 bytes.Buffer
	if code := runClient("submit", submitArgs, &out1, &err1); code != 0 {
		t.Fatalf("submit: exit %d, stderr %s", code, err1.String())
	}
	if !strings.Contains(err1.String(), "result: miss") {
		t.Errorf("first submit verdict: %s", err1.String())
	}

	var out2, err2 bytes.Buffer
	if code := runClient("submit", submitArgs, &out2, &err2); code != 0 {
		t.Fatalf("resubmit: exit %d, stderr %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "result: hit") {
		t.Errorf("second submit verdict: %s", err2.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("cache hit not byte-identical to original manifest")
	}

	m, err := service.DecodeManifest(out1.Bytes())
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var out3, err3 bytes.Buffer
	if code := runClient("get", []string{"-server", base, m.Key}, &out3, &err3); code != 0 {
		t.Fatalf("get: exit %d, stderr %s", code, err3.String())
	}
	if !bytes.Equal(out3.Bytes(), out1.Bytes()) {
		t.Error("get returned different bytes than submit")
	}

	var out4, err4 bytes.Buffer
	if code := runClient("stats", []string{"-server", base}, &out4, &err4); code != 0 {
		t.Fatalf("stats: exit %d, stderr %s", code, err4.String())
	}
	for _, want := range []string{`"puts": 1`, `"admitted": 1`} {
		if !strings.Contains(out4.String(), want) {
			t.Errorf("stats missing %s:\n%s", want, out4.String())
		}
	}
}

func TestClientErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runClient("get", []string{"-server", "http://127.0.0.1:1"}, &out, &errOut); code != 2 {
		t.Errorf("get without key: exit %d, want 2", code)
	}
	if code := runClient("bogus", nil, &out, &errOut); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
	base, _ := startDaemon(t)
	if code := runClient("submit", []string{"-server", base, "-apps", "nope"}, &out, &errOut); code != 1 {
		t.Errorf("invalid submit: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "400") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

func TestDaemonVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runDaemon(context.Background(), []string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Error("no version printed")
	}
}

// TestDaemonDebugAddr starts the daemon with a debug listener and GETs
// every URL its startup line names: each must answer 200, and the
// expvar page must carry the daemon's own counters.
func TestDaemonDebugAddr(t *testing.T) {
	_, out := startDaemon(t, "-debug-addr", "127.0.0.1:0")
	line := ""
	for deadline := time.Now().Add(10 * time.Second); line == "" && time.Now().Before(deadline); {
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "debug introspection on") {
				line = l
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	urls := regexp.MustCompile(`http://\S+`).FindAllString(line, -1)
	if len(urls) == 0 {
		t.Fatalf("no debug URL on stdout:\n%s", out.String())
	}
	for _, u := range urls {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", u, resp.Status)
		}
		if strings.HasSuffix(u, "/debug/vars") && !strings.Contains(string(body), `"tlacached"`) {
			t.Errorf("GET %s lacks the tlacached expvar", u)
		}
	}
}
