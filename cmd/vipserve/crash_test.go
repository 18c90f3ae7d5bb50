package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// This file is the crash-injection harness for vipserve's durability:
// a real vipserve subprocess is SIGKILLed with accepted jobs still in
// flight, restarted on the same -cache-dir, and every job it
// acknowledged must come back finished with a report byte-identical to
// a from-scratch simulation. It is the end-to-end check of the
// "persisted before acknowledged" contract (a pending marker in the
// cache directory per accepted async job); the unit-level pieces live
// in internal/cache and internal/serve.

// buildVipserve compiles the binary under test into dir.
func buildVipserve(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "vipserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building vipserve: %v\n%s", err, out)
	}
	return bin
}

// vipserveProc is one running subprocess and its parsed listen address.
type vipserveProc struct {
	cmd  *exec.Cmd
	addr string
}

// startVipserve launches bin with args plus -addr 127.0.0.1:0 and waits
// for the "listening on" banner to learn the bound port.
func startVipserve(t *testing.T, bin string, args ...string) *vipserveProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting vipserve: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "vipserve listening on "); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					rest = rest[:i]
				}
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &vipserveProc{cmd: cmd, addr: addr}
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("vipserve did not report a listen address")
		return nil
	}
}

func (p *vipserveProc) url(path string) string { return "http://" + p.addr + path }

// postJSON submits body and returns (status, response bytes).
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// awaitJob polls a job until it reaches a terminal state.
func awaitJob(t *testing.T, url string, budget time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(url)
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == 200 {
				var doc map[string]any
				if json.Unmarshal(b, &doc) == nil {
					switch doc["status"] {
					case "done", "failed":
						return doc
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish within %v", url, budget)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// normalize re-marshals a JSON value for byte comparison.
func normalize(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-injection test; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildVipserve(t, dir)
	cacheDir := filepath.Join(dir, "cache")

	scenarios := []string{
		`{"apps":["A5"],"duration_ms":50,"seed":11}`,
		`{"apps":["W4"],"duration_ms":50,"seed":12}`,
		`{"apps":["A5","A2"],"duration_ms":50,"seed":13}`,
	}

	// Life 1: accept the jobs on a single worker (so at most one can be
	// running when the kill lands), then SIGKILL with no warning.
	p1 := startVipserve(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	ids := make([]string, len(scenarios))
	for i, sc := range scenarios {
		status, body := postJSON(t, p1.url("/v1/sim?async=1"), sc)
		if status != 202 {
			_ = p1.cmd.Process.Kill()
			t.Fatalf("async POST %d = %d: %s", i, status, body)
		}
		var stub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &stub); err != nil || stub.ID == "" {
			_ = p1.cmd.Process.Kill()
			t.Fatalf("bad job stub: %s", body)
		}
		ids[i] = stub.ID
	}
	if err := p1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatalf("killing vipserve: %v", err)
	}
	_ = p1.cmd.Wait()

	// Life 2: same cache directory. Every acknowledged job must surface
	// again and finish; none may be lost.
	p2 := startVipserve(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	defer func() {
		if p2.cmd.ProcessState == nil {
			_ = p2.cmd.Process.Kill()
			_ = p2.cmd.Wait()
		}
	}()
	recovered := make([][]byte, len(ids))
	for i, id := range ids {
		doc := awaitJob(t, p2.url("/v1/jobs/"+id), 60*time.Second)
		if doc["status"] != "done" {
			t.Fatalf("job %s after crash: status=%v error=%v", id, doc["status"], doc["error"])
		}
		if doc["recovered"] != true {
			t.Errorf("job %s not annotated recovered", id)
		}
		if doc["report"] == nil {
			t.Fatalf("job %s recovered without a report", id)
		}
		recovered[i] = normalize(t, doc["report"])
	}

	// Reference: a pristine instance (fresh cache directory) simulating
	// the same scenarios from scratch must produce byte-identical
	// reports — recovery replayed the simulation, it did not invent data.
	ref := startVipserve(t, bin, "-cache-dir", filepath.Join(dir, "cache2"))
	defer func() {
		_ = ref.cmd.Process.Kill()
		_ = ref.cmd.Wait()
	}()
	for i, sc := range scenarios {
		status, body := postJSON(t, ref.url("/v1/sim"), sc)
		if status != 200 {
			t.Fatalf("reference POST %d = %d: %s", i, status, body)
		}
		var rep any
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recovered[i], normalize(t, rep)) {
			t.Errorf("job %s: recovered report differs from fresh simulation", ids[i])
		}
	}

	// Graceful exit: SIGTERM drains; the process must leave with status
	// 0, and a third life must find every job done (no marker left to
	// re-run).
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	exitCh := make(chan error, 1)
	go func() { exitCh <- p2.cmd.Wait() }()
	select {
	case err := <-exitCh:
		if err != nil {
			t.Fatalf("vipserve exit after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		_ = p2.cmd.Process.Kill()
		t.Fatal("vipserve did not exit after SIGTERM")
	}

	p3 := startVipserve(t, bin, "-cache-dir", cacheDir)
	defer func() {
		_ = p3.cmd.Process.Kill()
		_ = p3.cmd.Wait()
	}()
	for _, id := range ids {
		doc := awaitJob(t, p3.url("/v1/jobs/"+id), 10*time.Second)
		if doc["status"] != "done" {
			t.Errorf("job %s after graceful restart: status=%v", id, doc["status"])
		}
	}
}

// TestCacheDirFailureIsFatal: the cache directory carries durability,
// so pointing -cache-dir at an unusable path must refuse to boot (a
// misconfigured deployment should fail loudly, not refuse every async
// job at runtime), with exit status 1 and the cache dir named.
func TestCacheDirFailureIsFatal(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildVipserve(t, dir)
	// A regular file where the cache directory should be.
	bad := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", bad)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("vipserve with an unusable -cache-dir: %v, want exit status 1:\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("cache dir")) {
		t.Errorf("boot failure does not name the cache dir:\n%s", out)
	}
}

// TestRemovedFlagsRejected: -store and -max-attempts are not flags;
// naming one is a usage error (exit status 2), not a silently ignored
// knob.
func TestRemovedFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	bin := buildVipserve(t, t.TempDir())
	for _, args := range [][]string{{"-store", "x"}, {"-max-attempts", "3"}} {
		out, err := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("vipserve %v: %v, want exit status 2:\n%s", args, err, out)
		}
	}
}
