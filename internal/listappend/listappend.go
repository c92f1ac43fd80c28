// Package listappend implements Elle's most powerful analysis (§3–§4 of
// the paper): inference of an Adya-style dependency graph from observed
// transactions over append-only lists.
//
// Lists are traceable: a read of [1 2 3] proves the object took on the
// versions [], [1], [1 2], [1 2 3] in exactly that order. When every
// appended element is unique, versions are also recoverable: each observed
// version maps to exactly one write in exactly one observed transaction.
// Together these let us reconstruct a prefix of the version order ≪x for
// every object from the longest committed read, and from it the
// write-write, write-read, and read-write dependencies of every
// transaction whose writes were observed.
//
// The analyzer also detects every non-cycle anomaly of §4.3.1 and §6.1:
// aborted reads (G1a), intermediate reads (G1b), dirty updates, garbage
// reads, duplicate writes, internal inconsistencies, and inconsistent
// observations (incompatible orders).
//
// Inference is embarrassingly parallel: version orders and dependency
// edges are per-key, and the per-transaction checks are independent per
// transaction. Analyze therefore fans both out across Opts.Parallelism
// workers, collecting results in index-addressed slots so the analysis —
// anomalies, their order, and the dependency graph — is byte-identical at
// every parallelism level.
package listappend

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/workload"
)

// Analysis is the result of dependency inference over one history.
type Analysis struct {
	// Graph holds the inferred ww, wr, and rw edges (the IDSG of §4.3.2,
	// before process/real-time augmentation).
	Graph *graph.Graph
	// Anomalies are the non-cycle anomalies discovered during inference.
	Anomalies []anomaly.Anomaly
	// Keys is the history's key interner; VersionOrders is indexed by
	// its KeyIDs.
	Keys *history.Interner
	// VersionOrders holds, per KeyID, the inferred order of the key's
	// elements: the trace of the longest committed read, a prefix of ≪x.
	// The initial (empty) version is implicit; keys without clean reads
	// have a nil entry.
	VersionOrders [][]int
	// Ops indexes every analyzed completion op by op index.
	Ops map[int]op.Op
}

// VersionOrder returns the inferred element order for key, or nil.
func (a *Analysis) VersionOrder(key string) []int {
	id, ok := a.Keys.ID(key)
	if !ok || int(id) >= len(a.VersionOrders) {
		return nil
	}
	return a.VersionOrders[id]
}

// cleanRead is one committed read of a well-formed (duplicate-free) list
// value, the unit of per-key inference.
type cleanRead struct {
	o    op.Op
	list []int
}

// analyzer carries the indices built over one history. Per-key state is
// a dense slice indexed by the history interner's KeyIDs (see
// history.Interner), and per-element state lives in each key's element
// columns (see elemCols), so the hot inference loops hash neither key
// strings nor (key, element) composites.
type analyzer struct {
	opts workload.Opts
	h    *history.History
	in   *history.Interner

	ops map[int]op.Op // completion ops by index
	oks []op.Op
	// okInvoked holds, parallel to oks, the index of each op's invocation.
	okInvoked []int
	cols      []*elemCols // per-key element columns, indexed by KeyID
	anomalies []anomaly.Anomaly

	// pending indexes, per KeyID, the elements unpaired invocations
	// appended; built on first use (see pendingAppend).
	pendingOnce sync.Once
	pending     []map[int]bool

	// windowed marks a memory-budgeted streaming session: oks and the
	// committed-append columns are not accumulated (they would grow
	// with the history, and the budgeted Finish re-analyzes the
	// rehydrated history from scratch instead of reading them).
	windowed bool
}

// newAnalyzer returns an analyzer with empty indices over the given
// interner (the history's in batch runs, the stream's in sessions); the
// history itself is attached by Analyze (batch) or at Finish (streaming
// sessions).
func newAnalyzer(opts workload.Opts, in *history.Interner) *analyzer {
	return &analyzer{
		opts: opts,
		in:   in,
		ops:  map[int]op.Op{},
		cols: make([]*elemCols, in.Len()),
	}
}

// kid resolves an interned key (see history.Interner.MustID).
func (a *analyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

// Analyze infers the dependency graph and non-cycle anomalies for h.
// Of the shared options it consumes Parallelism and DetectLostUpdates
// (see workload.Opts).
func Analyze(h *history.History, opts workload.Opts) *Analysis {
	a := newAnalyzer(opts, h.Keys())
	a.h = h
	for pos, o := range h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		inv, comp := h.Span(pos)
		a.addOp(o, [2]int{inv, comp})
	}
	p := opts.Parallelism
	a.anomalies = append(a.anomalies, a.duplicateAppendAnomalies()...)

	// Per-transaction checks: every committed op is validated against its
	// own reads and writes, and against the element columns,
	// independently.
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.oks[i])
	}))
	reads := a.readPass()
	for i := range reads {
		a.anomalies = append(a.anomalies, reads[i].structure...)
	}

	// Per-key inference: version orders, then the dependency edges they
	// imply. Results are merged in sorted-key order.
	keys, byKey := a.cleanReadsByKey(reads)
	perKey := par.Map(p, len(keys), func(i int) keyOrder {
		k := keys[i]
		longest := longestRead(byKey[k])
		return keyOrder{elems: longest.list, anoms: a.incompatAnomalies(k, byKey[k], longest)}
	})
	orders := make([][]int, a.in.Len())
	for i, k := range keys {
		orders[k] = perKey[i].elems
		a.anomalies = append(a.anomalies, perKey[i].anoms...)
	}
	g := a.buildGraph(keys, byKey, orders)

	a.finishAnomalies(reads, keys, orders)
	return &Analysis{
		Graph:         g,
		Anomalies:     a.anomalies,
		Keys:          a.in,
		VersionOrders: orders,
		Ops:           a.ops,
	}
}

// orderAt reads a KeyID-indexed order slice that may be shorter than
// the key space (streaming sessions grow it on demand).
func orderAt(orders [][]int, k history.KeyID) []int {
	if int(k) < len(orders) {
		return orders[k]
	}
	return nil
}

// finishAnomalies appends the findings that come after version-order
// inference in the report — the read pass's G1a and G1b, then dirty and
// lost updates along the final version orders — shared by the batch
// Analyze and the streaming session's Finish.
func (a *analyzer) finishAnomalies(reads []txnReads, keys []history.KeyID, orders [][]int) {
	for i := range reads {
		a.anomalies = append(a.anomalies, reads[i].g1a...)
	}
	for i := range reads {
		a.anomalies = append(a.anomalies, reads[i].g1b...)
	}
	a.collect(par.Map(a.opts.Parallelism, len(keys), func(i int) []anomaly.Anomaly {
		return a.dirtyUpdateAnomalies(keys[i], orderAt(orders, keys[i]))
	}))
	if a.opts.DetectLostUpdates {
		a.checkLostUpdates(orders)
	}
}

func (a *analyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

// addOp indexes one completion op: the op index every check reads, and
// each append's attempt in its key's element columns (see elemCols).
// Ops must be added in ascending index order.
func (a *analyzer) addOp(o op.Op, span [2]int) {
	a.ops[o.Index] = o
	ok := o.Type == op.OK && !a.windowed
	if ok {
		a.oks = append(a.oks, o)
		a.okInvoked = append(a.okInvoked, span[0])
	}
	for _, m := range o.Mops {
		if m.F != op.FAppend {
			continue
		}
		c := a.colFor(a.in.Intern(m.Key))
		i := c.attempt(m.Arg, o.Index, o.Type == op.Fail)
		if ok && a.opts.DetectLostUpdates {
			c.commits = append(c.commits, commitAppend{txn: o.Index, completed: span[1], elem: m.Arg, ord: i})
		}
	}
}

// duplicateAppendAnomalies reports every element appended more than
// once, in sorted (key, element) order.
func (a *analyzer) duplicateAppendAnomalies() []anomaly.Anomaly {
	var keys []history.KeyID
	for k, c := range a.cols {
		if c != nil && len(c.dups) > 0 {
			keys = append(keys, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(keys)
	var out []anomaly.Anomaly
	for _, k := range keys {
		c := a.cols[k]
		kname := a.in.Key(k)
		for _, e := range slices.Sorted(maps.Keys(c.dups)) {
			idxs := c.dups[e]
			slices.Sort(idxs)
			ops := make([]op.Op, len(idxs))
			for i, ix := range idxs {
				ops[i] = a.ops[ix]
			}
			out = append(out, anomaly.Anomaly{
				Type: anomaly.DuplicateAppends,
				Ops:  ops,
				Key:  kname,
				Explanation: fmt.Sprintf(
					"element %d was appended to key %s by %d distinct transactions; appends must be unique for versions to be recoverable",
					e, kname, len(idxs)),
			})
		}
	}
	return out
}

// txnReads is what the read pass found in one committed transaction's
// reads, split by the report phase each finding belongs to.
type txnReads struct {
	structure []anomaly.Anomaly // duplicate elements, garbage reads
	g1a       []anomaly.Anomaly // aborted reads
	g1b       []anomaly.Anomaly // intermediate reads
	// dupRead marks a transaction with some read holding an element
	// twice: such a read is not clean.
	dupRead bool
}

// readPass checks every committed transaction's reads against the
// final element columns, in parallel and in op order.
func (a *analyzer) readPass() []txnReads {
	return par.Map(a.opts.Parallelism, len(a.oks), func(i int) txnReads {
		return a.checkReads(a.oks[i])
	})
}

// checkReads resolves each element of each of o's list reads to its
// key's ordinal once, and from that one walk finds duplicate elements,
// garbage reads (elements never appended by any attempted
// transaction), aborted reads (G1a: elements whose only writer
// aborted), and intermediate reads (G1b: a final element that was not
// its writer's final append to the key).
func (a *analyzer) checkReads(o op.Op) txnReads {
	var f txnReads
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		k := a.kid(m.Key)
		c := a.colAt(k)
		// increasing holds while every element resolves to an ordinal
		// above the last: such a list cannot repeat an element.
		increasing, prev := true, int32(-1)
		garbage, hasGarbage := 0, false
		last, lastOK := int32(0), false
		for _, e := range m.List {
			i, ok := c.lookup(e)
			last, lastOK = i, ok
			if !ok {
				increasing = false
				if !hasGarbage && !a.pendingAppend(k, e) {
					garbage, hasGarbage = e, true
				}
				continue
			}
			if i <= prev {
				increasing = false
			}
			prev = i
			if w, ok := c.failedWriter(i); ok {
				f.g1a = append(f.g1a, g1aAnomaly(o, m.Key, m.List, e, a.ops[w]))
			}
		}
		if !increasing {
			if e, ok := firstRepeat(m.List); ok {
				f.structure = append(f.structure, duplicateElementsAnomaly(o, m, e))
				f.dupRead = true
			}
		}
		if hasGarbage {
			f.structure = append(f.structure, anomaly.Anomaly{
				Type: anomaly.GarbageRead,
				Ops:  []op.Op{o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"%s read key %s as %s, but element %d was never appended by any transaction",
					o.Name(), m.Key, op.FormatList(m.List), garbage),
			})
		}
		if !lastOK {
			continue
		}
		if w, ok := c.writer(last); ok && w != o.Index {
			wo := a.ops[w]
			e := m.List[len(m.List)-1]
			if fa := finalAppend(wo, m.Key); fa != e {
				f.g1b = append(f.g1b, anomaly.Anomaly{
					Type: anomaly.G1b,
					Ops:  []op.Op{o, wo},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s as %s, whose final element %d was an intermediate append of %s (its final append to %s was %d): an intermediate read",
						o.Name(), m.Key, op.FormatList(m.List), e, wo.Name(), m.Key, fa),
				})
			}
		}
	}
	return f
}

// duplicateElementsAnomaly renders a read value containing element e
// more than once — shared with the streaming session, whose evidence
// for it is complete the moment the read is observed.
func duplicateElementsAnomaly(o op.Op, m op.Mop, e int) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.DuplicateElements,
		Ops:  []op.Op{o},
		Key:  m.Key,
		Explanation: fmt.Sprintf(
			"%s read key %s as %s, which contains element %d more than once: some append was applied multiple times",
			o.Name(), m.Key, op.FormatList(m.List), e),
	}
}

// cleanReadsByKey groups every committed duplicate-free list read by
// key — a dense KeyID-indexed slice, preserving op order within each
// key — and returns the name-sorted list of keys with clean reads, the
// per-key work items of version-order and edge inference. reads is the
// read pass's result, which flags the transactions holding a duplicate.
func (a *analyzer) cleanReadsByKey(reads []txnReads) ([]history.KeyID, [][]cleanRead) {
	byKey := make([][]cleanRead, a.in.Len())
	var keys []history.KeyID
	for oi, o := range a.oks {
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			if reads[oi].dupRead {
				if _, dup := firstRepeat(m.List); dup {
					continue
				}
			}
			k := a.kid(m.Key)
			if len(byKey[k]) == 0 {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], cleanRead{o, m.List})
		}
	}
	a.in.SortKeyIDs(keys)
	return keys, byKey
}

// keyOrder is one key's inferred version order plus the anomalies the
// inference surfaced.
type keyOrder struct {
	elems []int
	anoms []anomaly.Anomaly
}

// longestRead returns the first read of maximal length: its trace is
// the inferred version order ≪x of the key (§4.3.2). The streaming
// session maintains the same value across feeds by replacing only on a
// strictly longer read.
func longestRead(reads []cleanRead) cleanRead {
	longest := reads[0]
	for _, r := range reads[1:] {
		if len(r.list) > len(longest.list) {
			longest = r
		}
	}
	return longest
}

// incompatAnomalies reports incompatible orders against the longest
// read of key k: pairs of committed reads neither of which is a prefix
// of the other, which imply an aborted read in every interpretation
// (§4.3.1, "Inconsistent Observations").
func (a *analyzer) incompatAnomalies(k history.KeyID, reads []cleanRead, longest cleanRead) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	kname := a.in.Key(k)
	for _, r := range reads {
		if !op.IsPrefix(r.list, longest.list) {
			out = append(out, incompatAnomaly(kname, r, longest))
		}
	}
	return out
}

// incompatAnomaly renders one incompatible-order finding; the streaming
// session uses the same rendering for mid-stream surfacing.
func incompatAnomaly(k string, r, longest cleanRead) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.IncompatibleOrder,
		Ops:  []op.Op{r.o, longest.o},
		Key:  k,
		Explanation: fmt.Sprintf(
			"%s read key %s as %s but %s read it as %s; neither is a prefix of the other, so at least one observed an aborted version",
			r.o.Name(), k, op.FormatList(r.list),
			longest.o.Name(), op.FormatList(longest.list)),
	}
}

// buildGraph emits the inferred serialization graph of §4.3.2: per-key
// workers produce edge lists from the version orders and the element
// columns, which merge into one graph in key order.
func (a *analyzer) buildGraph(keys []history.KeyID, byKey [][]cleanRead, orders [][]int) *graph.Graph {
	g := graph.New()
	// Every transaction that may have committed is a vertex, even if it
	// has no edges; cycle search ignores isolated vertices.
	for _, o := range a.oks {
		g.Ensure(o.Index)
	}
	perKey := par.Map(a.opts.Parallelism, len(keys), func(i int) []graph.Edge {
		k := keys[i]
		return a.keyEdges(k, byKey[k], orders[k])
	})
	for _, edges := range perKey {
		g.AddEdges(edges)
	}
	return g
}

// keyEdges infers every dependency edge key k contributes. The writers
// along the version order are resolved once; every read that is a
// prefix of the order then finds the writers it observed and missed
// by position.
func (a *analyzer) keyEdges(k history.KeyID, reads []cleanRead, elems []int) []graph.Edge {
	type slot struct {
		w  int
		ok bool
	}
	c := a.colAt(k)
	writers := make([]slot, len(elems))
	for i, e := range elems {
		writers[i].w, writers[i].ok = c.writerOf(e)
	}
	var out []graph.Edge
	// ww: consecutive recoverable writers along the version order.
	for i := 0; i+1 < len(elems); i++ {
		if wi, wj := writers[i], writers[i+1]; wi.ok && wj.ok {
			out = append(out, graph.Edge{From: wi.w, To: wj.w, Kind: graph.WW})
		}
	}
	for _, r := range reads {
		if !op.IsPrefix(r.list, elems) {
			// Incompatible reads were already reported; don't let them
			// seed bogus edges.
			continue
		}
		// wr: the writer of the last element of the observed version
		// installed the version this read observed.
		if n := len(r.list); n > 0 {
			if w := writers[n-1]; w.ok {
				out = append(out, graph.Edge{From: w.w, To: r.o.Index, Kind: graph.WR})
			}
		}
		// rw: the writer of the next element in ≪x overwrote the
		// version this read observed.
		if n := len(r.list); n < len(elems) {
			if w := writers[n]; w.ok {
				out = append(out, graph.Edge{From: r.o.Index, To: w.w, Kind: graph.RW})
			}
		}
	}
	return out
}

// dirtyUpdateAnomalies reports dirty updates along key k's trace: an
// element from an aborted transaction followed by an element from a
// committed one means committed state incorporates aborted state (§4.1.5,
// "Via Traces").
func (a *analyzer) dirtyUpdateAnomalies(k history.KeyID, elems []int) []anomaly.Anomaly {
	c := a.colAt(k)
	var out []anomaly.Anomaly
	for i := 0; i+1 < len(elems); i++ {
		fw, failed := c.failedWriterOf(elems[i])
		if !failed {
			continue
		}
		for j := i + 1; j < len(elems); j++ {
			if cw, ok := c.writerOf(elems[j]); ok && a.ops[cw].Type == op.OK {
				kname := a.in.Key(k)
				out = append(out, anomaly.Anomaly{
					Type: anomaly.DirtyUpdate,
					Ops:  []op.Op{a.ops[fw], a.ops[cw]},
					Key:  kname,
					Explanation: fmt.Sprintf(
						"key %s's version history %s includes element %d from aborted %s, later built upon by committed %s: a dirty update",
						kname, op.FormatList(elems), elems[i], a.ops[fw].Name(), a.ops[cw].Name()),
				})
				break
			}
		}
	}
	return out
}

// checkLostUpdates reports committed appends that are absent from a
// longest read invoked strictly after the append's transaction
// completed. Per key, the long read's elements mark their ordinals, and
// one scan of the key's committed appends (recorded by addOp in op
// order) reports every append that completed before the read was
// invoked and whose ordinal is unmarked.
func (a *analyzer) checkLostUpdates(orders [][]int) {
	// Locate the longest read op per key (the one whose value is the
	// version order) and its invocation index. By the time this runs
	// (batch Analyze or a session's Finish) the interner is complete.
	type longRead struct {
		o      op.Op
		invoke int
		elems  []int
		ok     bool
	}
	longReads := make([]longRead, a.in.Len())
	var keys []history.KeyID
	for oi, o := range a.oks {
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			k := a.kid(m.Key)
			elems := orderAt(orders, k)
			if longReads[k].ok || elems == nil || len(m.List) != len(elems) || !op.IsPrefix(m.List, elems) {
				continue
			}
			longReads[k] = longRead{o: o, invoke: a.okInvoked[oi], elems: elems, ok: true}
			keys = append(keys, k)
		}
	}
	a.in.SortKeyIDs(keys)
	a.collect(par.Map(a.opts.Parallelism, len(keys), func(i int) []anomaly.Anomaly {
		k := keys[i]
		c := a.colAt(k)
		if c == nil {
			return nil
		}
		lr := longReads[k]
		observed := make([]bool, len(c.first))
		for _, e := range lr.elems {
			if i, ok := c.lookup(e); ok {
				observed[i] = true
			}
		}
		kname := a.in.Key(k)
		var out []anomaly.Anomaly
		for _, ca := range c.commits {
			if ca.txn == lr.o.Index || ca.completed >= lr.invoke || observed[ca.ord] {
				continue
			}
			w := a.ops[ca.txn]
			out = append(out, anomaly.Anomaly{
				Type: anomaly.LostUpdate,
				Ops:  []op.Op{w, lr.o},
				Key:  kname,
				Explanation: fmt.Sprintf(
					"%s committed an append of %d to key %s before %s began, yet %s read %s without it: the update was lost",
					w.Name(), ca.elem, kname, lr.o.Name(), lr.o.Name(), op.FormatList(lr.o.Mops[readPos(lr.o, kname)].List)),
			})
		}
		return out
	}))
}

// g1aAnomaly renders one aborted-read finding: reader observed list for
// key, whose element e was appended by the aborted writer. The
// streaming session uses the same rendering for mid-stream surfacing.
func g1aAnomaly(reader op.Op, key string, list []int, e int, writer op.Op) anomaly.Anomaly {
	return anomaly.Anomaly{
		Type: anomaly.G1a,
		Ops:  []op.Op{reader, writer},
		Key:  key,
		Explanation: fmt.Sprintf(
			"%s read key %s as %s, but element %d was appended by %s, which aborted: an aborted read",
			reader.Name(), key, op.FormatList(list), e, writer.Name()),
	}
}

func readPos(o op.Op, key string) int {
	for i, m := range o.Mops {
		if m.F == op.FRead && m.Key == key && m.List != nil {
			return i
		}
	}
	return 0
}

// finalAppend returns the last element o appended to key, or the zero
// value if o never appended to key.
func finalAppend(o op.Op, key string) int {
	last := 0
	for _, m := range o.Mops {
		if m.F == op.FAppend && m.Key == key {
			last = m.Arg
		}
	}
	return last
}
