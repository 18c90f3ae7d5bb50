package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVipsim compiles the binary under test into dir.
func buildVipsim(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "vipsim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building vipsim: %v\n%s", err, out)
	}
	return bin
}

// TestCompareRejectsFileOutputs pins that -compare, which prints one
// table row per design and writes no files, refuses every file-output
// flag up front (exit 2, one line on stderr, nothing written) instead
// of running five simulations and silently dropping their outputs.
// -metrics-addr publishes live and stays allowed.
func TestCompareRejectsFileOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vipsim binary")
	}
	dir := t.TempDir()
	bin := buildVipsim(t, dir)
	for _, flag := range []string{"-report-json", "-metrics-out", "-metrics-csv", "-trace-spans", "-trace-spans-chrome"} {
		path := filepath.Join(dir, strings.TrimPrefix(flag, "-")+".out")
		cmd := exec.Command(bin, "-compare", "-apps", "A5", "-duration", "5ms", flag, path)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-compare %s: err = %v, want exit status 2", flag, err)
		}
		if lines := strings.Split(strings.TrimSpace(stderr.String()), "\n"); len(lines) != 1 || !strings.Contains(lines[0], flag) {
			t.Errorf("-compare %s: stderr = %q, want one line naming the flag", flag, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-compare %s: printed %q before rejecting", flag, stdout.String())
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("-compare %s: output file exists (stat err %v)", flag, err)
		}
	}

	out, err := exec.Command(bin, "-compare", "-apps", "A5", "-duration", "5ms", "-metrics-addr", "127.0.0.1:0").Output()
	if err != nil {
		t.Fatalf("-compare -metrics-addr: %v", err)
	}
	if rows := strings.Count(string(out), "\n"); rows != 6 {
		t.Errorf("-compare -metrics-addr printed %d lines, want a header and five designs:\n%s", rows, out)
	}
}
