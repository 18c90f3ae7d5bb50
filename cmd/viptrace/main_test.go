package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestOutputDigests pins viptrace's stdout (trace summary, ASCII
// timeline, report) and its -o Chrome trace for two fixed scenarios:
// the head-of-line blocking case the command's doc names, and two A5
// players on VIP's lanes. The binary runs in a temp working directory
// with a relative -o path, so stdout names no temp path.
func TestOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the viptrace binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "viptrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building viptrace: %v\n%s", err, out)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, c := range []struct {
		args              []string
		stdout, tracefile string
	}{
		{
			[]string{"-system", "iptoipburst", "-apps", "W1", "-duration", "3ms"},
			"cd1c95f5c988b56151315754af16ce9607032ef0f9c15fc6037409819ddab815",
			"71d24f298ea03bf4d276b85a9d71b20da4db779a7fddca5cba2e3aebfbbe59da",
		},
		{
			[]string{"-system", "vip", "-apps", "A5,A5", "-duration", "3ms"},
			"a7dc5887d7e591f6ba0d612a5c4f0c3b9e1618faab2e3d1c0d441632b25c9ce4",
			"9063d5fd4947be9b29c3a03ab02e02722a62fa132f23c46c90307d16b653c2a4",
		},
	} {
		work := t.TempDir()
		cmd := exec.Command(bin, append(c.args, "-o", "t.json")...)
		cmd.Dir = work
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		tj, err := os.ReadFile(filepath.Join(work, "t.json"))
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got := sum(stdout); got != c.stdout {
			t.Errorf("%v: stdout digest %s, pinned %s\n%s", c.args, got, c.stdout, stdout)
		}
		if got := sum(tj); got != c.tracefile {
			t.Errorf("%v: t.json digest %s, pinned %s", c.args, got, c.tracefile)
		}
	}
}
