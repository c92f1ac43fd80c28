// Command e2ebench is the repository's end-to-end benchmark. It
// generates a history from a seed, checks it with the real `elle`
// binary or streams it through a real `elled` over loopback HTTP, and
// prints one JSON result line. With -trace 1 it also repeats the check
// in-process with a span around every call into a layer, and reports
// each layer's self time and allocations instead.
//
// Run it from the repository root through run.sh, which builds the
// binaries it drives:
//
//	bash e2ebench/run.sh --workload list-batch-json --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/memdb"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// spec is one workload: its input and how the program is driven.
type spec struct {
	in     input
	stream bool // drive elled instead of elle
	// verify checks one report against what the input must produce.
	verify func(report []byte, exit int) error
}

var (
	listInput = input{
		workload: "list-append", model: "strict-serializable",
		txns: 100000, clients: 20, keys: 100, infoProb: 0.01,
		isolation: memdb.StrictSerializable,
	}
	registerInput = input{
		workload: "rw-register", model: "strict-serializable", binary: true,
		txns: 20000, clients: 20, keys: 100,
		isolation: memdb.SnapshotIsolation,
		// ellegen's "retry" campaign.
		faults: memdb.Faults{RetryStompProb: 0.4, RetryRebaseProb: 1},
	}
)

var workloads = map[string]spec{
	"list-batch-json":          {in: listInput, verify: verifyClean},
	"register-faulted-ellebin": {in: registerInput, verify: verifyFaulted},
	"list-elled-stream":        {in: listInput, stream: true, verify: verifyClean},
}

func verifyClean(report []byte, exit int) error {
	if exit != 0 || !bytes.HasPrefix(report, []byte("OK: ")) || bytes.Contains(report, []byte("--- anomaly")) {
		return fmt.Errorf("clean history not reported valid (exit %d): %.200s", exit, report)
	}
	return nil
}

func verifyFaulted(report []byte, exit int) error {
	for _, want := range []string{"G-single", "G2-item"} {
		if exit != 1 || !bytes.Contains(report, []byte("--- anomaly")) ||
			!bytes.Contains(report, []byte(want)) {
			return fmt.Errorf("faulted history: no %s reported (exit %d): %.200s", want, exit, report)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	name    string
	spec    spec
	in      *input
	seed    int64
	seconds time.Duration
	trace   bool
	bin     string
	dir     string

	res    result
	detail map[string]any
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: list-batch-json, register-faulted-ellebin or list-elled-stream")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an in-process traced run")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the elle and elled binaries")
	work := flag.String("work", ".bench_build/work", "scratch directory for inputs, journals and spills")
	flag.Parse()

	sp, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	in := sp.in
	b := &bench{
		name: *name, spec: sp, in: &in, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		bin: *bin, dir: filepath.Join(*work, *name),
		res:    result{Correct: true, Metrics: map[string]metric{}},
		detail: map[string]any{},
	}
	if err := os.RemoveAll(b.dir); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	ext := ".jsonl"
	if in.binary {
		ext = ".ellebin"
	}
	in.path = filepath.Join(b.dir, "history"+ext)

	var err error
	if sp.stream {
		err = b.runStream()
	} else {
		err = b.runBatch()
	}
	os.RemoveAll(b.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", b.name, err)
		return 1
	}
	if b.res.Failed > 0 {
		b.res.Correct = false
	}

	b.detail["workload"] = b.name
	b.detail["seed"] = b.seed
	b.detail["host"] = hostFacts()
	b.detail["input"] = map[string]any{
		"path_ext": ext, "ops": in.ops, "completions": in.completions, "bytes": in.bytes,
		"txns": in.txns, "clients": in.clients, "keys": in.keys,
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"detail": b.detail}); err != nil {
		return 1
	}
	if err := out.Encode(b.res); err != nil {
		return 1
	}
	return 0
}

// fail records a failed check or request; the run goes on, but its
// result is no longer correct.
func (b *bench) fail(err error) {
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", b.name, err)
	b.res.Failed++
	b.res.Correct = false
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// generate writes the input setupReps times, timing each, and returns
// the timings.
func (b *bench) generate() ([]time.Duration, error) {
	var ts []time.Duration
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := b.in.generate(b.seed); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(start))
	}
	return ts, nil
}

// runBatch measures `elle` on the generated file for b.seconds.
func (b *bench) runBatch() error {
	setups, err := b.generate()
	if err != nil {
		return err
	}
	elle := filepath.Join(b.bin, "elle")

	// The first report is verified, and every later one must equal it.
	var ref *elleRun
	var walls, cpus, rss []float64
	for start := time.Now(); time.Since(start) < b.seconds; {
		b.res.Attempted++
		r, err := runElle(elle, b.in)
		if err != nil {
			b.fail(err)
			continue
		}
		if ref == nil {
			ref = &r
			if err := b.spec.verify(r.stdout, r.exit); err != nil {
				b.fail(err)
			}
		} else if !bytes.Equal(r.stdout, ref.stdout) || r.exit != ref.exit {
			b.fail(errors.New("elle's report differs between runs of the same file"))
			continue
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
	}
	if len(walls) == 0 {
		return errors.New("no check completed")
	}
	b.detail["check_s"] = walls
	b.detail["check_cpu_s"] = cpus
	b.detail["peak_rss_mb"] = rss
	b.detail["setup_s"] = seconds(setups)
	b.detail["report_bytes"] = len(ref.stdout)

	if !b.trace {
		b.set("check_s", median(walls), "s")
		b.set("check_cpu_s", median(cpus), "s")
		b.set("peak_rss_mb", median(rss), "MB")
		b.set("setup_s", median(seconds(setups)), "s")
		return nil
	}
	report, t, err := tracedBatch(b.in)
	if err != nil {
		return err
	}
	b.layerMetrics(t, ref.stdout, report, median(walls))
	b.elledMetrics(nil)
	return nil
}

// runStream measures jobs through one elled for b.seconds.
func (b *bench) runStream() error {
	elledBin := filepath.Join(b.bin, "elled")
	var setups []float64
	var e *elled
	defer func() {
		if e != nil {
			e.stop()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return fmt.Errorf("stopping elled: %w", err)
			}
			e = nil
		}
		start := time.Now()
		if err := b.in.generate(b.seed); err != nil {
			return err
		}
		var err error
		if e, err = startElled(elledBin, b.dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	raw, err := os.ReadFile(b.in.path)
	if err != nil {
		return err
	}
	chunks := splitLines(raw)
	raw = nil

	// The stream ≡ batch oracle: every job's report must equal elle's
	// stdout for the same file.
	b.res.Attempted++
	ref, err := runElle(filepath.Join(b.bin, "elle"), b.in)
	if err != nil {
		return err
	}
	if err := b.spec.verify(ref.stdout, ref.exit); err != nil {
		b.fail(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	prev, err := e.scrape()
	if err != nil {
		return err
	}
	var jobs, cpus, peaks, uploads, reports, acks []float64
	var last map[string]float64
	for start := time.Now(); time.Since(start) < b.seconds; {
		jr, err := e.runJob(ctx, chunks)
		b.res.Attempted += jr.reqs
		if err != nil {
			b.fail(err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if !bytes.Equal(jr.text, ref.stdout) {
			b.fail(errors.New("elled's report differs from elle's batch report for the same file"))
		}
		delta := func(k string) float64 { return jr.metrics[k] - prev[k] }
		if got := delta("elled_chunks_total"); got != float64(len(chunks)) {
			b.fail(fmt.Errorf("elled counted %v chunks, %d were sent", got, len(chunks)))
		}
		if got := delta("elled_ingest_ops_total"); got != float64(b.in.completions) {
			b.fail(fmt.Errorf("elled ingested %v ops, the file has %d completions", got, b.in.completions))
		}
		if got := delta("elled_refused_total"); got != 0 {
			b.fail(fmt.Errorf("elled refused %v requests", got))
		}
		last = map[string]float64{"elled_memory_retired_ops": jr.metrics["elled_memory_retired_ops"]}
		for _, k := range []string{"elled_chunks_total", "elled_ingest_ops_total",
			"elled_wal_appends_total", "elled_wal_bytes_total", "elled_refused_total"} {
			last[k] = delta(k)
		}
		prev = jr.metrics
		jobs = append(jobs, jr.job.Seconds())
		cpus = append(cpus, jr.cpu.Seconds())
		peaks = append(peaks, jr.peakMB)
		uploads = append(uploads, jr.upload.Seconds())
		reports = append(reports, jr.report.Seconds())
		for _, a := range jr.acks {
			acks = append(acks, float64(a)/float64(time.Millisecond))
		}
	}
	if len(jobs) == 0 {
		return errors.New("no job completed")
	}
	err = e.stop()
	e = nil
	if err != nil {
		b.fail(fmt.Errorf("elled did not exit cleanly: %w", err))
	}

	b.detail["job_s"] = jobs
	b.detail["job_cpu_s"] = cpus
	b.detail["peak_rss_mb"] = peaks
	b.detail["upload_s"] = uploads
	b.detail["report_s"] = reports
	b.detail["setup_s"] = setups
	b.detail["chunks_per_job"] = len(chunks)
	b.detail["chunk_ack_ms"] = map[string]any{
		"samples": len(acks), "p50": percentile(acks, 50), "p95": percentile(acks, 95),
	}
	b.detail["elled_metrics_last_job"] = last

	if !b.trace {
		b.set("check_s", median(jobs), "s")
		b.set("check_cpu_s", median(cpus), "s")
		b.set("peak_rss_mb", median(peaks), "MB")
		b.set("setup_s", median(setups), "s")
		return nil
	}
	tdir := filepath.Join(b.dir, "traced")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	report, t, err := tracedStream(b.in, chunks, tdir)
	if err != nil {
		return err
	}
	// The service's own share of an upload: what the client waited for
	// beyond the journaling, decoding and feeding traced in-process.
	ingest := t.stats["wal.append"].ns + t.stats["jsonhist.decode"].ns + t.stats["core.stream.feed"].ns
	served := t.stats["service.http"]
	*served = layerStat{ns: int64(median(uploads)*1e9) - ingest, spans: len(chunks)}
	b.layerMetrics(t, ref.stdout, report, median(jobs)-time.Duration(served.ns).Seconds())
	b.elledMetrics(last)
	return nil
}

// layerMetrics reports a traced run: every layer's self time and heap
// allocations, the work counts, and the integrity checks — the traced
// report must equal the real one byte for byte, and the layers must
// account for all but 10% of the traced wall time. e2e is the untraced
// time the traced run should reproduce.
func (b *bench) layerMetrics(t *tracer, want, got []byte, e2e float64) {
	b.res.Attempted++
	if !bytes.Equal(want, got) {
		b.fail(errors.New("the traced run's report differs from the end-to-end report"))
	}
	wall := t.wall.Seconds()
	residual := t.residual.Seconds()
	b.res.Attempted++
	if residual < -0.1*wall || residual > 0.1*wall {
		b.fail(fmt.Errorf("layers cover %.3fs of a %.3fs traced run; residual above 10%%", wall-residual, wall))
	}
	for _, l := range layers {
		s := t.stats[l]
		b.set(metricName(l, "_s"), time.Duration(s.ns).Seconds(), "s")
		b.set(metricName(l, "_allocs"), float64(s.allocs), "count")
		b.set(metricName(l, "_alloc_bytes"), float64(s.allocBytes), "bytes")
	}
	for _, c := range counters {
		b.set(c.name, t.counts[c.name], c.unit)
	}
	if t.counts["jsonhist_decode_ops"] > 0 { // a JSON input, decoded whole
		decode := time.Duration(t.stats["jsonhist.decode"].ns).Seconds()
		b.set("jsonhist_decode_mb_per_s", float64(b.in.bytes)/1e6/decode, "MB/s")
	}
	b.set("traced_wall_s", wall, "s")
	b.set("residual_s", residual, "s")
	b.set("tracing_overhead_s", wall-e2e, "s")
}

// elledMetrics reports the per-job counters scraped from elled's
// /metrics; a batch workload has none and reports zeros.
func (b *bench) elledMetrics(last map[string]float64) {
	for _, k := range []string{"elled_chunks_total", "elled_ingest_ops_total", "elled_wal_appends_total",
		"elled_wal_bytes_total", "elled_refused_total", "elled_memory_retired_ops"} {
		unit := "count"
		if k == "elled_wal_bytes_total" {
			unit = "bytes"
		}
		b.set(k, last[k], unit)
	}
}

// counters are the traced runs' work counts.
var counters = []struct{ name, unit string }{
	{"jsonhist_decode_ops", "count"},
	{"jsonhist_decode_mb_per_s", "MB/s"},
	{"binhist_decode_ops", "count"},
	{"history_new_ops", "count"},
	{"txngraph_order_edges", "count"},
	{"workload_analyze_nodes", "count"},
	{"workload_analyze_edges", "count"},
	{"workload_analyze_anomalies", "count"},
	{"graph_cycles_cycles", "count"},
	{"explain_cycle_explanations", "count"},
	{"graph_scc_stats_sccs", "count"},
	{"report_render_bytes", "bytes"},
	{"wal_append_appends", "count"},
	{"wal_append_bytes", "bytes"},
	{"core_stream_feed_ops", "count"},
	{"history_retire_ops", "count"},
	{"history_retire_segments", "count"},
	{"history_retire_bytes", "bytes"},
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(i, len(s)-1))]
}

// hostFacts records what the numbers were measured on. The sources may
// have no git metadata, so they are identified by a digest of their Go
// files.
func hostFacts() map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpu,
		"source_sha256": sourceDigest(),
	}
}

func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if raw, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
