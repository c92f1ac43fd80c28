// Package core is the public face of the Elle checker: it accepts an
// observed history and an expected consistency model, runs the
// workload-appropriate dependency inference, augments the graph with
// process and real-time orders where the model warrants them, searches for
// cycles, classifies every anomaly, and reports which isolation models the
// observation rules out — each with a human-readable explanation in the
// style of the paper's Figure 2.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/anomaly"
	"repro/internal/consistency"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/par"
	"repro/internal/txngraph"
	"repro/internal/workload"

	// Populate the workload registry with every built-in analyzer.
	_ "repro/internal/workload/all"
)

// Workload selects the dependency-inference strategy by registered
// name; see the workload package for the registry.
type Workload = workload.Name

// The built-in workloads.
const (
	// ListAppend analyzes histories over append-only lists — the paper's
	// traceable, recoverable workload, and its most precise analysis.
	ListAppend = workload.ListAppend
	// Register analyzes histories over read-write registers with the
	// partial version-order inference of §5.2.
	Register = workload.RWRegister
	// SetAdd analyzes histories over grow-only sets: exact wr and rw
	// dependencies, but no write-write inference (§3).
	SetAdd = workload.SetAdd
	// Counter analyzes histories over increment-only counters: bounds
	// and session-monotonicity checks only (§3).
	Counter = workload.Counter
	// Bank analyzes transfer histories over fixed accounts with a
	// total-balance invariant.
	Bank = workload.Bank
	// KAtomic analyzes single-object register histories for atomicity
	// and k-atomicity in real time — the one workload checked by
	// interval analysis rather than dependency inference.
	KAtomic = workload.KAtomic
)

// Opts configures a check.
type Opts struct {
	// Workload selects the analyzer by registered name; default
	// ListAppend. Check panics on a name no analyzer registered under.
	Workload Workload
	// Model is the consistency model the database under test claims.
	// Default: strict-serializable.
	Model consistency.Model
	// ProcessEdges merges per-process session order into the dependency
	// graph before cycle search.
	ProcessEdges bool
	// RealtimeEdges merges the real-time precedence order into the
	// dependency graph before cycle search.
	RealtimeEdges bool
	// TimestampEdges merges the database's own claimed transaction
	// timestamps (carried in Op.Time, §5.1) into the dependency graph.
	// Only meaningful when the system under test exposes start/commit
	// timestamps; off by default.
	TimestampEdges bool
	// Opts carries the analyzer options shared by every workload —
	// inference rules, workload parameters, and Parallelism, which caps
	// the worker pools used throughout the check: per-key dependency
	// inference, per-transaction anomaly checks, per-SCC cycle search
	// (budgeted across the four concurrent searches), and explanation
	// rendering. Values <= 0 mean one worker per CPU
	// (runtime.GOMAXPROCS(0)), the default; 1 runs the whole pipeline
	// sequentially on the calling goroutine. When Parallelism > 1 the
	// process/real-time/timestamp ordering graphs also build
	// concurrently with inference, briefly adding up to three more
	// goroutines. Results are byte-identical at every setting.
	workload.Opts
}

// OptsFor returns the options the paper's methodology implies for
// checking workload w against model m: real-time edges (and lost-update
// detection) for strict models, session edges for strong-session and
// stricter models, and every register inference rule for register
// workloads.
func OptsFor(w Workload, m consistency.Model) Opts {
	strict := m == consistency.StrictSerializable
	session := strict ||
		m == consistency.StrongSessionSerial ||
		m == consistency.StrongSessionSI
	wo := workload.DefaultOpts()
	wo.LinearizableKeys = strict
	wo.DetectLostUpdates = strict
	return Opts{
		Workload:      w,
		Model:         m,
		ProcessEdges:  session,
		RealtimeEdges: strict,
		Opts:          wo,
	}
}

func (o Opts) withDefaults() Opts {
	if o.Model == "" {
		o.Model = consistency.StrictSerializable
	}
	if o.Workload == "" {
		o.Workload = ListAppend
	}
	return o
}

// Stats summarizes the analysis for reporting and benchmarks.
type Stats struct {
	Ops       int // completion ops analyzed
	Nodes     int // transactions in the dependency graph
	Edges     int // distinct dependency adjacencies
	SCCs      int // strongly connected components with ≥ 2 transactions
	ExtraKind graph.KindSet
}

// CheckResult is the outcome of a check.
type CheckResult struct {
	// Valid reports whether the observation is consistent with Expected:
	// no detected anomaly rules it out.
	Valid bool
	// Expected is the model the check was performed against.
	Expected consistency.Model
	// Anomalies lists every detected anomaly, structural first, then
	// dirty phenomena, then cycles, each with an explanation.
	Anomalies []anomaly.Anomaly
	// Violated lists every model the detected anomalies rule out.
	Violated []consistency.Model
	// Strongest lists the maximal models the observation may satisfy.
	Strongest []consistency.Model
	// Graph is the final dependency graph searched for cycles.
	Graph *graph.Graph
	// Explainer renders additional cycles against this analysis.
	Explainer *explain.Explainer
	Stats     Stats
}

// AnomalyTypes returns the distinct anomaly types found, sorted.
func (r *CheckResult) AnomalyTypes() []anomaly.Type {
	set := map[anomaly.Type]bool{}
	for _, a := range r.Anomalies {
		set[a.Type] = true
	}
	out := make([]anomaly.Type, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasAnomaly reports whether any anomaly of type t was found.
func (r *CheckResult) HasAnomaly(t anomaly.Type) bool {
	for _, a := range r.Anomalies {
		if a.Type == t {
			return true
		}
	}
	return false
}

// Summary renders a short multi-line report.
func (r *CheckResult) Summary() string {
	var b strings.Builder
	if r.Valid {
		fmt.Fprintf(&b, "OK: no anomalies rule out %s\n", r.Expected)
	} else {
		fmt.Fprintf(&b, "INVALID under %s\n", r.Expected)
	}
	fmt.Fprintf(&b, "  %d ops, %d nodes, %d edges, %d cyclic components\n",
		r.Stats.Ops, r.Stats.Nodes, r.Stats.Edges, r.Stats.SCCs)
	if len(r.Anomalies) > 0 {
		counts := map[anomaly.Type]int{}
		for _, a := range r.Anomalies {
			counts[a.Type]++
		}
		b.WriteString("  anomalies:")
		for _, t := range r.AnomalyTypes() {
			fmt.Fprintf(&b, " %s×%d", t, counts[t])
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "  may satisfy: %s\n", joinModels(r.Strongest))
	}
	return b.String()
}

func joinModels(ms []consistency.Model) string {
	if len(ms) == 0 {
		return "(nothing)"
	}
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = string(m)
	}
	return strings.Join(parts, ", ")
}

// Check analyzes h under opts. It never modifies h.
//
// The pipeline is parallel end to end (see Opts.Parallelism): the extra
// ordering graphs build concurrently with dependency inference, inference
// itself shards per key and per transaction inside the workload analyzer,
// cycle search fans out per strongly connected component, and every stage
// merges its results in a deterministic order, so two checks of the same
// history produce identical reports at any parallelism level.
func Check(h *history.History, opts Opts) *CheckResult {
	opts = opts.withDefaults()

	// The process, real-time, and timestamp orders depend only on the
	// history, not on inference, so they build while the analyzer runs.
	orders := startOrderGraphs(h, opts)

	// The analyzer comes from the registry: core neither knows nor
	// cares which datatype it is checking. Every analyzer receives the
	// same shared options (including Parallelism) and returns a graph,
	// its non-cycle anomalies, and an explainer.
	info := lookup(opts.Workload)
	an := info.Analyzer.Analyze(h, opts.Opts)
	return classify(h, opts, an, orders)
}

// lookup resolves a workload name or panics with the registered set; a
// bad name is a programming error at this layer (the CLIs validate).
func lookup(w Workload) workload.Info {
	info, ok := workload.Lookup(string(w))
	if !ok {
		panic(fmt.Sprintf("core: unknown workload %q (registered: %s)",
			w, workload.NameList()))
	}
	return info
}

// orderGraphs carries the in-flight builds of the §5.1 ordering graphs;
// wait joins them.
type orderGraphs struct {
	proc, rt, ts *graph.Graph
	wg           sync.WaitGroup
}

// startOrderGraphs kicks off the process/real-time/timestamp graph
// builds opts asks for, concurrently when the parallelism budget allows
// it, so they overlap with dependency inference (batch) or with the
// streaming session's own finish work.
func startOrderGraphs(h *history.History, opts Opts) *orderGraphs {
	o := &orderGraphs{}
	build := func(dst **graph.Graph, f func(*history.History) *graph.Graph) {
		if par.Procs(opts.Parallelism) == 1 {
			*dst = f(h)
			return
		}
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			*dst = f(h)
		}()
	}
	if opts.ProcessEdges {
		build(&o.proc, txngraph.ProcessGraph)
	}
	if opts.RealtimeEdges {
		build(&o.rt, txngraph.RealtimeGraph)
	}
	if opts.TimestampEdges {
		build(&o.ts, txngraph.TimestampGraph)
	}
	return o
}

// classify is the back half of a check, shared by the batch Check and
// the streaming Stream.Finish: merge the extra ordering graphs into the
// inferred dependency graph, search for anomalous cycles, classify
// every anomaly, and evaluate the consistency lattice.
func classify(h *history.History, opts Opts, an workload.Analysis, orders *orderGraphs) *CheckResult {
	p := opts.Parallelism
	g, anoms, expl := an.Graph, an.Anomalies, an.Explainer

	orders.wg.Wait()
	var extra graph.KindSet
	if opts.ProcessEdges {
		g.Merge(orders.proc)
		extra |= graph.Process.Mask()
	}
	if opts.RealtimeEdges {
		g.Merge(orders.rt)
		extra |= graph.Realtime.Mask()
	}
	if opts.TimestampEdges {
		g.Merge(orders.ts)
		extra |= graph.Timestamp.Mask()
	}

	cycles, sccs := g.Freeze().AnomalousCycles(extra, p)
	anoms = append(anoms, par.Map(p, len(cycles), func(i int) anomaly.Anomaly {
		c := cycles[i]
		return anomaly.Anomaly{
			Type:        anomaly.CycleType(c),
			Cycle:       c,
			Explanation: expl.Cycle(c),
		}
	})...)
	sortAnomalies(anoms)

	types := make([]anomaly.Type, len(anoms))
	for i, a := range anoms {
		types[i] = a.Type
	}
	violated := consistency.Violated(types)
	res := &CheckResult{
		Valid:     consistency.Holds(opts.Model, types),
		Expected:  opts.Model,
		Anomalies: anoms,
		Violated:  violated,
		Strongest: consistency.Strongest(types),
		Graph:     g,
		Explainer: expl,
		Stats: Stats{
			Ops:       len(h.Completions()),
			Nodes:     g.NumNodes(),
			Edges:     g.NumEdges(),
			SCCs:      sccs,
			ExtraKind: extra,
		},
	}
	return res
}

func sortAnomalies(as []anomaly.Anomaly) {
	sort.SliceStable(as, func(i, j int) bool {
		if as[i].Type.Severity() != as[j].Type.Severity() {
			return as[i].Type.Severity() > as[j].Type.Severity()
		}
		return as[i].Type < as[j].Type
	})
}
