package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the re-executed test binary run main() with its
// arguments instead of the tests, so each smoke test drives the real
// command line, flag parsing and exit codes included.
const runMainEnv = "E3_BENCH_SMOKE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes e3-bench with args in dir and returns its exit code and
// combined output.
func run(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	default:
		t.Fatalf("e3-bench %v: %v", args, err)
		return -1, ""
	}
}

func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		files []string // written relative to the run directory
		want  string   // a substring of the output
	}{
		{name: "list", args: []string{"-list"}, want: "fig03"},
		{name: "fig", args: []string{"-fig", "fig03"}, want: "fig03"},
		{name: "audit", args: []string{"-audit"}},
		{name: "replan-audit", args: []string{"-windows", "2", "-audit"}, want: "audit: ok"},
		{name: "trace-out", args: []string{"-trace-out", "demo.json"}, files: []string{"demo.json"}},
		{name: "flame-out", args: []string{"-flame-out", "pipe.json"}, files: []string{"pipe.json"}, want: "exact"},
		{name: "flame-out-serial", args: []string{"-flame-runner", "serial", "-flame-out", "serial.json"},
			files: []string{"serial.json"}, want: "serial runner"},
		{name: "fleet", args: []string{"-fleet", "2"}, want: "front door"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, out := run(t, dir, tc.args...)
			if code != 0 {
				t.Fatalf("e3-bench %v exited %d:\n%s", tc.args, code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("e3-bench %v output lacks %q:\n%s", tc.args, tc.want, out)
			}
			for _, f := range tc.files {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("e3-bench %v did not write %s: %v", tc.args, f, err)
				}
			}
		})
	}
}

// TestRemovedFlagsExitTwo pins that the retired JSON benchmark modes and
// the comma-separated flame diff are gone: each is now an unknown flag,
// which the flag package rejects with exit code 2 before anything runs.
func TestRemovedFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-bench-out", "x.json"},
		{"-sim-bench", "x.json"},
		{"-plan-bench", "x.json"},
		{"-fleet-bench", "x.json"},
		{"-flame-diff", "a.json,b.json"},
	} {
		dir := t.TempDir()
		if code, out := run(t, dir, args...); code != 2 {
			t.Errorf("e3-bench %v exited %d, want 2:\n%s", args, code, out)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("e3-bench %v wrote %d file(s)", args, len(left))
		}
	}
}

func TestUnknownFlameRunnerExitsOne(t *testing.T) {
	dir := t.TempDir()
	code, out := run(t, dir, "-flame-runner", "bogus", "-flame-out", "x.json")
	if code != 1 {
		t.Fatalf("unknown -flame-runner exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "pipeline or serial") {
		t.Errorf("unknown -flame-runner error does not name the choices:\n%s", out)
	}
}
