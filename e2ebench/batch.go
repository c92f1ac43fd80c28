package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"syscall"
	"time"
)

// elleRun is one `elle` process checking a file.
type elleRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system, from rusage
	rssMB  float64       // peak resident set, from rusage
	exit   int
	stdout []byte
}

// runElle checks in with `elle -parallelism 1`, capturing its report and
// resource usage. Exit codes 0 (consistent) and 1 (anomalies) are both
// answers; anything else is a failed check.
func runElle(bin string, in *input) (elleRun, error) {
	args := []string{"-parallelism", "1", "-workload", in.workload, "-model", in.model, in.path}
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := elleRun{wall: time.Since(start), stdout: stdout.Bytes()}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return r, fmt.Errorf("running elle: %w", err)
	}
	r.exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	if r.exit != 0 && r.exit != 1 {
		return r, fmt.Errorf("elle exited %d: %s", r.exit, bytes.TrimSpace(stderr.Bytes()))
	}
	return r, nil
}
