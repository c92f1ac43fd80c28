package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/anomaly"
	"repro/internal/binhist"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/op"
	"repro/internal/report"
	"repro/internal/txngraph"
	"repro/internal/wal"
	"repro/internal/workload"
)

// layers are the module boundaries the traced runs time, in pipeline
// order. Each becomes <name>_s, <name>_allocs and <name>_alloc_bytes,
// with the dots turned into underscores.
var layers = []string{
	"jsonhist.decode",
	"binhist.decode",
	"history.new",
	"txngraph.order",
	"workload.analyze",
	"graph.merge",
	"graph.cycles",
	"explain.cycle",
	"graph.scc_stats",
	"consistency.classify",
	"report.render",
	"wal.append",
	"core.stream.feed",
	"core.stream.finish",
	"service.http",
}

// layerStat accumulates one layer's spans. Spans never nest, so a
// span's duration is its self time.
type layerStat struct {
	ns         int64
	allocs     uint64
	allocBytes uint64
	spans      int
}

// tracer times calls into each layer from the outside, around the same
// public functions the program calls, and counts the work they did.
type tracer struct {
	stats  map[string]*layerStat
	counts map[string]float64
	start  time.Time
	// wall is the traced run's duration; residual the part of it no
	// layer's span covers.
	wall, residual time.Duration

	before, after runtime.MemStats
}

func newTracer() *tracer {
	t := &tracer{stats: map[string]*layerStat{}, counts: map[string]float64{}}
	for _, l := range layers {
		t.stats[l] = &layerStat{}
	}
	t.start = time.Now()
	return t
}

// span runs f as one call into layer. Heap statistics are read outside
// the timed interval, so their cost lands in the residual.
func (t *tracer) span(layer string, f func()) {
	s := t.stats[layer]
	runtime.ReadMemStats(&t.before)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&t.after)
	s.ns += int64(d)
	s.allocs += t.after.Mallocs - t.before.Mallocs
	s.allocBytes += t.after.TotalAlloc - t.before.TotalAlloc
	s.spans++
}

// finish ends the traced interval. A layer the path never called is
// opened once around no work, so it reads the tracer's own per-span
// cost rather than a constant.
func (t *tracer) finish() {
	for _, l := range layers {
		if t.stats[l].spans == 0 {
			t.span(l, func() {})
		}
	}
	t.wall = time.Since(t.start)
	t.residual = t.wall - t.selfSum()
}

// selfSum is the summed self time of every layer traced in-process.
func (t *tracer) selfSum() time.Duration {
	var ns int64
	for _, l := range layers {
		ns += t.stats[l].ns
	}
	return time.Duration(ns)
}

func metricName(layer, suffix string) string {
	return strings.ReplaceAll(layer, ".", "_") + suffix
}

// tracedBatch repeats one `elle -parallelism 1 FILE` check in-process,
// call for call: the decode elle's main runs, then core.Check's
// sequential pipeline (order graphs, analyzer, merge, cycle search,
// explanations, classification), then report.Prose. It returns the
// rendered report, which must equal elle's stdout byte for byte.
func tracedBatch(in *input) ([]byte, *tracer, error) {
	info, _ := workload.Lookup(in.workload)
	opts := core.OptsFor(core.Workload(info.Name), consistency.Model(in.model))
	opts.Parallelism = 1

	t := newTracer()
	f, err := os.Open(in.path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)

	var ops []op.Op
	if in.binary {
		t.span("binhist.decode", func() { ops, err = decodeBinary(br) })
		t.counts["binhist_decode_ops"] = float64(len(ops))
	} else {
		t.span("jsonhist.decode", func() { ops, err = decodeJSON(br, info.RegisterReads) })
		t.counts["jsonhist_decode_ops"] = float64(len(ops))
	}
	if err != nil {
		return nil, nil, err
	}
	var h *history.History
	t.span("history.new", func() { h, err = history.New(ops) })
	if err != nil {
		return nil, nil, err
	}
	ops = nil
	t.counts["history_new_ops"] = float64(h.Len())

	var proc, rt *graph.Graph
	t.span("txngraph.order", func() {
		if opts.ProcessEdges {
			proc = txngraph.ProcessGraph(h)
		}
		if opts.RealtimeEdges {
			rt = txngraph.RealtimeGraph(h)
		}
	})
	t.counts["txngraph_order_edges"] = float64(numEdges(proc) + numEdges(rt))

	var an workload.Analysis
	t.span("workload.analyze", func() { an = info.Analyzer.Analyze(h, opts.Opts) })
	g := an.Graph
	t.counts["workload_analyze_nodes"] = float64(g.NumNodes())
	t.counts["workload_analyze_edges"] = float64(g.NumEdges())
	t.counts["workload_analyze_anomalies"] = float64(len(an.Anomalies))

	var extra graph.KindSet
	t.span("graph.merge", func() {
		if opts.ProcessEdges {
			g.Merge(proc)
			extra |= graph.Process.Mask()
		}
		if opts.RealtimeEdges {
			g.Merge(rt)
			extra |= graph.Realtime.Mask()
		}
	})

	var cycles []graph.Cycle
	t.span("graph.cycles", func() { cycles = g.AnomalousCycles(extra, opts.Parallelism) })
	t.counts["graph_cycles_cycles"] = float64(len(cycles))

	anoms := an.Anomalies
	t.span("explain.cycle", func() {
		for _, c := range cycles {
			anoms = append(anoms, anomaly.Anomaly{
				Type:        anomaly.CycleType(c),
				Cycle:       c,
				Explanation: an.Explainer.Cycle(c),
			})
		}
	})
	t.counts["explain_cycle_explanations"] = float64(len(cycles))

	res := &core.CheckResult{Expected: opts.Model, Graph: g, Explainer: an.Explainer}
	t.span("consistency.classify", func() {
		sort.SliceStable(anoms, func(i, j int) bool {
			if anoms[i].Type.Severity() != anoms[j].Type.Severity() {
				return anoms[i].Type.Severity() > anoms[j].Type.Severity()
			}
			return anoms[i].Type < anoms[j].Type
		})
		types := make([]anomaly.Type, len(anoms))
		for i, a := range anoms {
			types[i] = a.Type
		}
		res.Anomalies = anoms
		res.Violated = consistency.Violated(types)
		res.Valid = consistency.Holds(opts.Model, types)
		res.Strongest = consistency.Strongest(types)
	})

	t.span("graph.scc_stats", func() {
		res.Stats = core.Stats{
			Ops:       len(h.Completions()),
			Nodes:     g.NumNodes(),
			Edges:     g.NumEdges(),
			SCCs:      len(g.SCCs(graph.KSDep | extra)),
			ExtraKind: extra,
		}
	})
	t.counts["graph_scc_stats_sccs"] = float64(res.Stats.SCCs)

	var out bytes.Buffer
	t.span("report.render", func() { report.Prose(&out, res, report.ProseOpts{}) })
	t.counts["report_render_bytes"] = float64(out.Len())
	t.finish()
	return out.Bytes(), t, nil
}

func numEdges(g *graph.Graph) int {
	if g == nil {
		return 0
	}
	return g.NumEdges()
}

// decodeJSON is jsonhist.DecodeWith at parallelism 1 without its final
// history.New, which the tracer times as a layer of its own.
func decodeJSON(r io.Reader, register bool) ([]op.Op, error) {
	dec := jsonhist.NewStreamDecoder(r, jsonhist.DecodeOpts{Register: register, Parallelism: 1})
	var ops []op.Op
	for {
		chunk, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, chunk...)
	}
}

// decodeBinary is binhist.Decode without its final history.New: the
// same 256 KiB reads, each decoded as it arrives.
func decodeBinary(r io.Reader) ([]op.Op, error) {
	var dec binhist.ChunkDecoder
	var ops []op.Op
	buf := make([]byte, 1<<18)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			got, ferr := dec.Feed(buf[:n])
			if ferr != nil {
				return nil, ferr
			}
			ops = append(ops, got...)
		}
		if errors.Is(err, io.EOF) {
			return ops, dec.Close()
		}
		if err != nil {
			return nil, err
		}
	}
}

// tracedStream repeats one elled job in-process, call for call with the
// service's chunk path at one shard and parallelism 1: per chunk, the
// WAL append, the JSON decode and the stream feed; then the stream's
// finish and the prose render the report endpoint serves.
func tracedStream(in *input, chunks [][]byte, dir string) ([]byte, *tracer, error) {
	opts := streamOpts(dir)
	t := newTracer()
	jw, err := wal.Create(dir, wal.Options{Mode: wal.SyncNone}, wal.Meta{
		ID: "traced", Seq: 1, Workload: string(opts.Workload), Model: string(opts.Model),
		Parallelism: opts.Parallelism, MemoryBudget: opts.MemoryBudget, CreatedAt: time.Now().UTC(),
	})
	if err != nil {
		return nil, nil, err
	}
	defer jw.Remove()
	st := core.CheckStream(opts)

	var decoded, fed int
	for _, body := range chunks {
		t.span("wal.append", func() { err = jw.AppendChunk(wal.FormatJSON, body) })
		if err != nil {
			return nil, nil, err
		}
		var batches [][]op.Op
		t.span("jsonhist.decode", func() { batches, err = decodeChunk(body) })
		if err != nil {
			return nil, nil, err
		}
		t.span("core.stream.feed", func() {
			for _, ops := range batches {
				if _, err = st.Feed(ops); err != nil {
					return
				}
				fed += len(ops)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		for _, ops := range batches {
			decoded += len(ops)
		}
	}
	t.counts["jsonhist_decode_ops"] = float64(decoded)
	t.counts["wal_append_appends"] = float64(len(chunks))
	t.counts["wal_append_bytes"] = float64(jw.Size())
	t.counts["core_stream_feed_ops"] = float64(fed)

	var res *core.CheckResult
	t.span("core.stream.finish", func() { res, err = st.Finish() })
	if err != nil {
		return nil, nil, err
	}
	if rs, ok := st.RetireStats(); ok {
		t.counts["history_retire_ops"] = float64(rs.Stream.RetiredOps)
		t.counts["history_retire_segments"] = float64(rs.Stream.Segments)
		t.counts["history_retire_bytes"] = float64(int64(rs.Stream.RetiredBytes) + rs.Stream.SpilledBytes)
	}
	var out bytes.Buffer
	t.span("report.render", func() { report.Prose(&out, res, report.ProseOpts{}) })
	t.counts["report_render_bytes"] = float64(out.Len())
	t.finish()
	if fed != in.ops {
		return nil, nil, fmt.Errorf("traced stream fed %d ops, file has %d", fed, in.ops)
	}
	return out.Bytes(), t, nil
}

// decodeChunk decodes one upload body the way the service's ingest
// does: a fresh stream decoder over the body, batches in order.
func decodeChunk(body []byte) ([][]op.Op, error) {
	dec := jsonhist.NewStreamDecoder(bytes.NewReader(body), jsonhist.DecodeOpts{Parallelism: 1})
	var batches [][]op.Op
	for {
		ops, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return batches, nil
		}
		if err != nil {
			return nil, err
		}
		batches = append(batches, ops)
	}
}

// streamOpts are the options elled gives a job created with
// {"workload":"list-append","parallelism":1,"memory_budget":4096}
// under -mem-spill dir.
func streamOpts(dir string) core.Opts {
	opts := core.OptsFor(core.ListAppend, consistency.StrictSerializable)
	opts.Parallelism = 1
	opts.MemoryBudget = streamBudget
	opts.SpillDir = dir
	return opts
}
