package listappend

import (
	"fmt"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/workload"
)

// The map-based analyzer this package used before the per-key element
// columns: every element-keyed index is a map over (key, element)
// composites, G1a is a relational lookup join over the whole history,
// lost updates are a per-key anti-join, and the internal-consistency
// check keeps a map per transaction. It is kept as the reference Analyze
// is compared against.
//
// One deliberate difference from its last production form: the
// crashed-client fallback of refAnalyzer.attempted skips invocations a
// completion paired. The production check meant to, but compared an
// invocation's index against completion indices and so never matched;
// on every history whose completions repeat their invocation's appends
// (memdb's, Jepsen's) the two agree.

type refElem struct {
	key  history.KeyID
	elem int
}

type refAnalyzer struct {
	opts workload.Opts
	h    *history.History
	in   *history.Interner

	ops          map[int]op.Op
	oks          []op.Op
	spanOf       map[int][2]int
	attempts     map[refElem][]int
	writer       map[refElem]int
	failedWriter map[refElem]int
	anomalies    []anomaly.Anomaly
	failedIndex  *rel.Index
}

func (a *refAnalyzer) kid(k string) history.KeyID { return a.in.MustID(k) }

// refAnalyze is the reference counterpart of Analyze.
func refAnalyze(h *history.History, opts workload.Opts) *Analysis {
	a := &refAnalyzer{
		opts:         opts,
		h:            h,
		in:           h.Keys(),
		ops:          map[int]op.Op{},
		spanOf:       map[int][2]int{},
		attempts:     map[refElem][]int{},
		writer:       map[refElem]int{},
		failedWriter: map[refElem]int{},
	}
	for pos, o := range h.Ops {
		if o.Type == op.Invoke {
			continue
		}
		inv, comp := h.Span(pos)
		a.addOp(o, [2]int{inv, comp})
	}
	p := opts.Parallelism
	a.anomalies = append(a.anomalies, a.duplicateAppendAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.internalAnomalies(a.oks[i])
	}))
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.readStructureAnomalies(a.oks[i])
	}))

	keys, byKey := a.cleanReadsByKey()
	orders := make([][]int, a.in.Len())
	for _, k := range keys {
		longest := longestRead(byKey[k])
		orders[k] = longest.list
		kname := a.in.Key(k)
		for _, r := range byKey[k] {
			if !op.IsPrefix(r.list, longest.list) {
				a.anomalies = append(a.anomalies, incompatAnomaly(kname, r, longest))
			}
		}
	}
	g := graph.New()
	for _, o := range a.oks {
		g.Ensure(o.Index)
	}
	for _, k := range keys {
		g.AddEdges(a.keyEdges(k, byKey[k], orders[k]))
	}

	a.failedIndex = rel.BuildIndex(a.failedAppendRel(), "key", "elem")
	a.anomalies = append(a.anomalies, a.abortedReadAnomalies()...)
	a.collect(par.Map(p, len(a.oks), func(i int) []anomaly.Anomaly {
		return a.intermediateReadAnomalies(a.oks[i])
	}))
	a.collect(par.Map(p, len(keys), func(i int) []anomaly.Anomaly {
		return a.dirtyUpdateAnomalies(keys[i], orders[keys[i]])
	}))
	if a.opts.DetectLostUpdates {
		a.checkLostUpdates(orders)
	}
	return &Analysis{
		Graph:         g,
		Anomalies:     a.anomalies,
		Keys:          a.in,
		VersionOrders: orders,
		Ops:           a.ops,
	}
}

func (a *refAnalyzer) collect(groups [][]anomaly.Anomaly) {
	a.anomalies = anomaly.AppendGroups(a.anomalies, groups)
}

func (a *refAnalyzer) addOp(o op.Op, span [2]int) {
	a.ops[o.Index] = o
	a.spanOf[o.Index] = span
	if o.Type == op.OK {
		a.oks = append(a.oks, o)
	}
	for _, m := range o.Mops {
		if m.F != op.FAppend {
			continue
		}
		ek := refElem{a.in.Intern(m.Key), m.Arg}
		a.attempts[ek] = append(a.attempts[ek], o.Index)
		switch len(a.attempts[ek]) {
		case 1:
			if o.Type == op.Fail {
				a.failedWriter[ek] = o.Index
			} else {
				a.writer[ek] = o.Index
			}
		case 2:
			delete(a.writer, ek)
			delete(a.failedWriter, ek)
		}
	}
}

func (a *refAnalyzer) duplicateAppendAnomalies() []anomaly.Anomaly {
	var keys []refElem
	for ek, idxs := range a.attempts {
		if len(idxs) > 1 {
			keys = append(keys, ek)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return a.in.Less(keys[i].key, keys[j].key)
		}
		return keys[i].elem < keys[j].elem
	})
	var out []anomaly.Anomaly
	for _, ek := range keys {
		idxs := a.attempts[ek]
		sort.Ints(idxs)
		ops := make([]op.Op, len(idxs))
		for i, ix := range idxs {
			ops[i] = a.ops[ix]
		}
		kname := a.in.Key(ek.key)
		out = append(out, anomaly.Anomaly{
			Type: anomaly.DuplicateAppends,
			Ops:  ops,
			Key:  kname,
			Explanation: fmt.Sprintf(
				"element %d was appended to key %s by %d distinct transactions; appends must be unique for versions to be recoverable",
				ek.elem, kname, len(idxs)),
		})
	}
	return out
}

func (a *refAnalyzer) readStructureAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		if dup, ok := refDuplicateElements(o, m); ok {
			out = append(out, dup)
		}
		k := a.kid(m.Key)
		for _, e := range m.List {
			if !a.attempted(refElem{k, e}) {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.GarbageRead,
					Ops:  []op.Op{o},
					Key:  m.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s as %s, but element %d was never appended by any transaction",
						o.Name(), m.Key, op.FormatList(m.List), e),
				})
				break
			}
		}
	}
	return out
}

func refDuplicateElements(o op.Op, m op.Mop) (anomaly.Anomaly, bool) {
	seen := make(map[int]bool, len(m.List))
	for _, e := range m.List {
		if seen[e] {
			return anomaly.Anomaly{
				Type: anomaly.DuplicateElements,
				Ops:  []op.Op{o},
				Key:  m.Key,
				Explanation: fmt.Sprintf(
					"%s read key %s as %s, which contains element %d more than once: some append was applied multiple times",
					o.Name(), m.Key, op.FormatList(m.List), e),
			}, true
		}
		seen[e] = true
	}
	return anomaly.Anomaly{}, false
}

// attempted rescans the whole history on every miss: the quadratic
// fallback the pending-append index replaced.
func (a *refAnalyzer) attempted(ek refElem) bool {
	if len(a.attempts[ek]) > 0 {
		return true
	}
	kname := a.in.Key(ek.key)
	paired := map[int]bool{}
	for pos, o := range a.h.Ops {
		if o.Type != op.Invoke {
			if inv, _ := a.h.Span(pos); inv != o.Index {
				paired[inv] = true
			}
		}
	}
	for _, o := range a.h.Ops {
		if o.Type != op.Invoke || paired[o.Index] {
			continue
		}
		for _, m := range o.Mops {
			if m.F == op.FAppend && m.Key == kname && m.Arg == ek.elem {
				return true
			}
		}
	}
	return false
}

func refHasDuplicates(v []int) bool {
	seen := make(map[int]bool, len(v))
	for _, e := range v {
		if seen[e] {
			return true
		}
		seen[e] = true
	}
	return false
}

func (a *refAnalyzer) cleanReadsByKey() ([]history.KeyID, [][]cleanRead) {
	byKey := make([][]cleanRead, a.in.Len())
	var keys []history.KeyID
	for _, o := range a.oks {
		for _, m := range o.Mops {
			if !m.ListKnown() || refHasDuplicates(m.List) {
				continue
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

func (a *refAnalyzer) keyEdges(k history.KeyID, reads []cleanRead, elems []int) []graph.Edge {
	var out []graph.Edge
	for i := 0; i+1 < len(elems); i++ {
		wi, oki := a.writer[refElem{k, elems[i]}]
		wj, okj := a.writer[refElem{k, elems[i+1]}]
		if oki && okj {
			out = append(out, graph.Edge{From: wi, To: wj, Kind: graph.WW})
		}
	}
	for _, r := range reads {
		if !op.IsPrefix(r.list, elems) {
			continue
		}
		if n := len(r.list); n > 0 {
			if w, ok := a.writer[refElem{k, r.list[n-1]}]; ok {
				out = append(out, graph.Edge{From: w, To: r.o.Index, Kind: graph.WR})
			}
		}
		if len(r.list) < len(elems) {
			next := elems[len(r.list)]
			if w, ok := a.writer[refElem{k, next}]; ok {
				out = append(out, graph.Edge{From: r.o.Index, To: w, Kind: graph.RW})
			}
		}
	}
	return out
}

// failedAppendRel is the relation failed_append(key, elem, writer).
func (a *refAnalyzer) failedAppendRel() rel.Relation {
	fw := a.failedWriter
	return rel.NewRelation([]string{"key", "elem", "writer"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 3)
		for ek, w := range fw {
			t[0], t[1], t[2] = rel.Int(int(ek.key)), rel.Int(ek.elem), rel.Int(w)
			if !yield(t) {
				return
			}
		}
	})
}

// readElemRel is the relation read_elem(key, elem, txn, mop).
func (a *refAnalyzer) readElemRel() rel.Relation {
	return rel.NewRelation([]string{"key", "elem", "txn", "mop"}, func(yield func(rel.Tuple) bool) {
		t := make(rel.Tuple, 4)
		for oi, o := range a.oks {
			for pos, m := range o.Mops {
				if !m.ListKnown() {
					continue
				}
				k := rel.Int(int(a.kid(m.Key)))
				for _, e := range m.List {
					t[0], t[1], t[2], t[3] = k, rel.Int(e), rel.Int(oi), rel.Int(pos)
					if !yield(t) {
						return
					}
				}
			}
		}
	})
}

// abortedReadAnomalies is read_elem ⋈ failed_append.
func (a *refAnalyzer) abortedReadAnomalies() []anomaly.Anomaly {
	if a.failedIndex.Len() == 0 {
		return nil
	}
	var out []anomaly.Anomaly
	a.readElemRel().LookupJoin(a.failedIndex).Each(func(t rel.Tuple) bool {
		o := a.oks[t[2].Num()]
		m := o.Mops[t[3].Num()]
		out = append(out, g1aAnomaly(o, m.Key, m.List, int(t[1].Num()), a.ops[int(t[4].Num())]))
		return true
	})
	return out
}

func (a *refAnalyzer) intermediateReadAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for _, m := range o.Mops {
		if !m.ListKnown() {
			continue
		}
		k := a.kid(m.Key)
		if n := len(m.List); n > 0 {
			last := m.List[n-1]
			if w, ok := a.writer[refElem{k, last}]; ok && w != o.Index {
				wo := a.ops[w]
				if finalAppend(wo, m.Key) != last {
					out = append(out, anomaly.Anomaly{
						Type: anomaly.G1b,
						Ops:  []op.Op{o, wo},
						Key:  m.Key,
						Explanation: fmt.Sprintf(
							"%s read key %s as %s, whose final element %d was an intermediate append of %s (its final append to %s was %d): an intermediate read",
							o.Name(), m.Key, op.FormatList(m.List), last, wo.Name(), m.Key, finalAppend(wo, m.Key)),
					})
				}
			}
		}
	}
	return out
}

func (a *refAnalyzer) dirtyUpdateAnomalies(k history.KeyID, elems []int) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	for i := 0; i+1 < len(elems); i++ {
		fw, failed := a.failedWriter[refElem{k, elems[i]}]
		if !failed {
			continue
		}
		for j := i + 1; j < len(elems); j++ {
			if cw, ok := a.writer[refElem{k, elems[j]}]; ok && a.ops[cw].Type == op.OK {
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

// checkLostUpdates is, per key, σ(completed before the long read) over
// the committed appends, anti-joined against the long read's elements.
func (a *refAnalyzer) checkLostUpdates(orders [][]int) {
	type longRead struct {
		o      op.Op
		invoke int
		elems  []int
		ok     bool
	}
	longReads := make([]longRead, a.in.Len())
	for _, o := range a.oks {
		for _, m := range o.Mops {
			if !m.ListKnown() {
				continue
			}
			k := a.kid(m.Key)
			elems := orders[k]
			if elems == nil || len(m.List) != len(elems) || !op.IsPrefix(m.List, elems) {
				continue
			}
			if longReads[k].ok {
				continue
			}
			longReads[k] = longRead{o: o, invoke: a.spanOf[o.Index][0], elems: elems, ok: true}
		}
	}
	type keyAppend struct {
		o         op.Op
		elem      int
		completed int
	}
	appendsByKey := make([][]keyAppend, a.in.Len())
	for _, w := range a.oks {
		for _, m := range w.Mops {
			if m.F == op.FAppend {
				k := a.kid(m.Key)
				appendsByKey[k] = append(appendsByKey[k],
					keyAppend{o: w, elem: m.Arg, completed: a.spanOf[w.Index][1]})
			}
		}
	}
	var keys []history.KeyID
	for k := range longReads {
		if longReads[k].ok {
			keys = append(keys, history.KeyID(k))
		}
	}
	a.in.SortKeyIDs(keys)
	for _, k := range keys {
		kname := a.in.Key(k)
		lr := longReads[k]
		kas := appendsByKey[k]
		observedIx := rel.BuildIndex(rel.NewRelation([]string{"elem"},
			func(yield func(rel.Tuple) bool) {
				t := make(rel.Tuple, 1)
				for _, e := range lr.elems {
					t[0] = rel.Int(e)
					if !yield(t) {
						return
					}
				}
			}), "elem")
		appends := rel.NewRelation([]string{"pos", "elem", "completed", "txn"},
			func(yield func(rel.Tuple) bool) {
				t := make(rel.Tuple, 4)
				for pos, ka := range kas {
					t[0], t[1], t[2], t[3] = rel.Int(pos), rel.Int(ka.elem), rel.Int(ka.completed), rel.Int(ka.o.Index)
					if !yield(t) {
						return
					}
				}
			})
		appends.
			Select(func(t rel.Tuple) bool {
				return int(t[3].Num()) != lr.o.Index && int(t[2].Num()) < lr.invoke
			}).
			AntiJoin(observedIx).
			Each(func(t rel.Tuple) bool {
				ka := kas[t[0].Num()]
				a.anomalies = append(a.anomalies, anomaly.Anomaly{
					Type: anomaly.LostUpdate,
					Ops:  []op.Op{ka.o, lr.o},
					Key:  kname,
					Explanation: fmt.Sprintf(
						"%s committed an append of %d to key %s before %s began, yet %s read %s without it: the update was lost",
						ka.o.Name(), ka.elem, kname, lr.o.Name(), lr.o.Name(), op.FormatList(lr.o.Mops[readPos(lr.o, kname)].List)),
				})
				return true
			})
	}
}

// keyModel tracks what a transaction must believe about one key.
type refKeyModel struct {
	// known is true once the transaction has read the key, fixing the
	// full expected value.
	known bool
	// value is the full expected value when known.
	value []int
	// appended holds the transaction's own appends since the last read
	// (or since the start, if it has never read the key). When !known,
	// any observed value must end with exactly these elements.
	appended []int
}

// internalAnomalies is the map-per-transaction internal-consistency
// check.
func (a *refAnalyzer) internalAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	models := map[history.KeyID]*refKeyModel{}
	model := func(k string) *refKeyModel {
		id := a.kid(k)
		m, ok := models[id]
		if !ok {
			m = &refKeyModel{}
			models[id] = m
		}
		return m
	}
	for _, mop := range o.Mops {
		m := model(mop.Key)
		switch mop.F {
		case op.FAppend:
			if m.known {
				m.value = append(m.value, mop.Arg)
			} else {
				m.appended = append(m.appended, mop.Arg)
			}
		case op.FRead:
			if !mop.ListKnown() {
				continue
			}
			observed := mop.List
			if m.known {
				if !equalInts(observed, m.value) {
					out = append(out, anomaly.Anomaly{
						Type: anomaly.Internal,
						Ops:  []op.Op{o},
						Key:  mop.Key,
						Explanation: fmt.Sprintf(
							"%s read key %s as %s, but its own prior reads and appends imply the value must be %s: an internal inconsistency",
							o.Name(), mop.Key, op.FormatList(observed), op.FormatList(m.value)),
					})
				}
			} else if !endsWith(observed, m.appended) {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.Internal,
					Ops:  []op.Op{o},
					Key:  mop.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s as %s, which does not end with its own prior appends %s: an internal inconsistency",
						o.Name(), mop.Key, op.FormatList(observed), op.FormatList(m.appended)),
				})
			}
			// Whatever was observed is the transaction's view from here on.
			m.known = true
			m.value = append([]int(nil), observed...)
			m.appended = nil
		}
	}
	return out
}
