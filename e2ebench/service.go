package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/elleclient"
)

// streamBudget is the memory_budget of every benchmark job: roughly
// this many recent completions stay decoded, the rest retire.
const streamBudget = 4096

// chunkLines is `ellectl feed`'s default chunk size.
const chunkLines = 1000

// splitLines cuts a JSON-lines file into chunkLines-line upload bodies,
// exactly as `ellectl feed` does.
func splitLines(raw []byte) [][]byte {
	var chunks [][]byte
	start, lines := 0, 0
	for i, b := range raw {
		if b != '\n' {
			continue
		}
		if lines++; lines == chunkLines {
			chunks = append(chunks, raw[start:i+1])
			start, lines = i+1, 0
		}
	}
	if start < len(raw) {
		chunks = append(chunks, raw[start:])
	}
	return chunks
}

// probe is the client for /healthz and /metrics, which answer at once.
var probe = &http.Client{Timeout: 10 * time.Second}

// elled is one running service process.
type elled struct {
	cmd    *exec.Cmd
	base   string
	client *elleclient.Client
	done   chan error
}

// startElled launches elled on a loopback port of the kernel's choosing
// with one shard, journaling to dir/wal without fsync and spilling to
// dir/spill, and returns once /healthz answers.
func startElled(bin, dir string) (*elled, error) {
	walDir, spill := filepath.Join(dir, "wal"), filepath.Join(dir, "spill")
	for _, d := range []string{walDir, spill} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", "1",
		"-wal-dir", walDir, "-wal-sync", "none", "-mem-spill", spill)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting elled: %w", err)
	}
	e := &elled{cmd: cmd, done: make(chan error, 1)}

	// elled announces its bound address on stderr; the rest of its
	// stderr is drained so it never blocks on a full pipe.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "elled: listening on "); ok {
				addr <- a
			}
		}
		e.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		e.base = "http://" + a
	case err := <-e.done:
		return nil, fmt.Errorf("elled exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		e.stop()
		return nil, fmt.Errorf("elled did not announce its address")
	}
	e.client = elleclient.New(e.base)
	e.client.RetryLimit = -1 // a refusal is a failed request, not a retry
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := probe.Get(e.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return e, nil
			}
		}
		if time.Now().After(deadline) {
			e.stop()
			return nil, fmt.Errorf("elled /healthz did not answer: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop interrupts elled, which exits 0 after draining, and waits for it.
func (e *elled) stop() error {
	_ = e.cmd.Process.Signal(os.Interrupt)
	select {
	case err := <-e.done:
		return err
	case <-time.After(20 * time.Second):
		_ = e.cmd.Process.Kill()
		<-e.done
		return fmt.Errorf("elled ignored SIGINT; killed")
	}
}

// procStat reads elled's CPU time so far and its peak resident set.
func (e *elled) procStat() (cpu time.Duration, peakMB float64, err error) {
	pid := e.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall, in USER_HZ (100 per second).
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, 0, err
			}
			peakMB = kb / 1024
		}
	}
	return cpu, peakMB, nil
}

// jobRun is one job driven through elled by a single sequential client.
type jobRun struct {
	job     time.Duration   // create sent → report received
	upload  time.Duration   // summed chunk round trips
	report  time.Duration   // last ack → report received
	acks    []time.Duration // one per chunk
	cpu     time.Duration   // elled CPU time over the job
	peakMB  float64         // elled's peak RSS during the job
	text    []byte          // the prose report
	metrics map[string]float64
	reqs    int // requests attempted; a job stops at its first failure
}

// runJob creates a job, uploads every chunk in order waiting for each
// ack, fetches the report, scrapes /metrics, and deletes the job.
func (e *elled) runJob(ctx context.Context, chunks [][]byte) (jobRun, error) {
	var r jobRun
	cpu0, _, err := e.procStat()
	if err != nil {
		return r, err
	}
	// Writing 5 to clear_refs resets the peak RSS, so VmHWM after the
	// job is this job's peak.
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", e.cmd.Process.Pid), []byte("5"), 0); err != nil {
		return r, err
	}
	start := time.Now()
	r.reqs++
	job, err := e.client.Create(ctx, elleclient.CreateRequest{
		Workload: "list-append", Model: "strict-serializable",
		Parallelism: 1, MemoryBudget: streamBudget,
	})
	if err != nil {
		return r, fmt.Errorf("creating job: %w", err)
	}
	r.acks = make([]time.Duration, 0, len(chunks))
	for _, c := range chunks {
		t0 := time.Now()
		r.reqs++
		if _, err := e.client.Feed(ctx, job.ID, c); err != nil {
			return r, fmt.Errorf("uploading chunk %d: %w", len(r.acks), err)
		}
		d := time.Since(t0)
		r.acks = append(r.acks, d)
		r.upload += d
	}
	lastAck := time.Now()
	r.reqs++
	rep, err := e.client.Report(ctx, job.ID)
	if err != nil {
		return r, fmt.Errorf("fetching report: %w", err)
	}
	r.report = time.Since(lastAck)
	r.job = time.Since(start)
	r.text = rep.Text
	cpu1, peak, err := e.procStat()
	if err != nil {
		return r, err
	}
	r.peakMB = peak
	r.cpu = cpu1 - cpu0

	r.reqs++
	if r.metrics, err = e.scrape(); err != nil {
		return r, err
	}
	r.reqs++
	if err := e.client.Cancel(ctx, job.ID); err != nil {
		return r, fmt.Errorf("deleting job: %w", err)
	}
	return r, nil
}

// scrape reads elled's Prometheus counters, summing labelled series by
// metric name.
func (e *elled) scrape() (map[string]float64, error) {
	resp, err := probe.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		m[name] += v
	}
	return m, sc.Err()
}
