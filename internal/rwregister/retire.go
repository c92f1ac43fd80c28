package rwregister

import (
	"repro/internal/history"
	"repro/internal/op"
	"repro/internal/workload"
)

// This file is the register session's memory-budget half: with a budget
// configured (workload.Opts.MemoryBudget), per-key inference caches are
// kept only for keys touched within the window. Register inference has
// no cross-key graph to freeze — dependencies are exploded per key — so
// retirement here is purely map and slice eviction; the op stream's own
// segment retirement (history.Stream) bounds op storage. Mid-stream
// findings from a budgeted session are a subset of the unbudgeted
// session's; the definitive analysis is Finish's full re-analysis of
// the rehydrated stream.

// note records one completion with the key tracker. Ops touching no
// keys are unpinned immediately: nothing can ever cite them.
func (s *session) note(o op.Op) {
	if s.rt == nil {
		return
	}
	keys := make([]history.KeyID, 0, len(o.Mops))
	for _, m := range o.Mops {
		keys = append(keys, s.a.kid(m.Key))
	}
	if len(keys) == 0 {
		delete(s.a.ops, o.Index)
		delete(s.a.spanOf, o.Index)
		return
	}
	s.rt.NoteOp(o.Index, keys)
}

// sweep retires every key quiescent for a full window: its op grouping,
// cached inference result, version index, per-value write and reader
// indices, and — once no live key pins them — its ops. A retired key
// seen again is re-analyzed as brand new.
func (s *session) sweep() {
	dead, deadOps := s.rt.Sweep()
	a := s.a
	for _, k := range dead {
		if int(k) < len(a.byKey) {
			a.byKey[k] = nil
		}
		if int(k) < len(a.vers) {
			// Every (key, value) entry of the per-value maps has its
			// value in the key's version index.
			for _, v := range a.vers[k].vals {
				vk := verKey{k, v}
				delete(a.writer, vk)
				delete(a.failedWriter, vk)
				delete(a.writeCount, vk)
				delete(a.readers, vk)
			}
			a.vers[k] = keyVersions{}
		}
		delete(s.cache, k)
		delete(s.keySet, k)
	}
	for _, i := range deadOps {
		delete(a.ops, i)
		delete(a.spanOf, i)
	}
}

// RetireStats implements workload.Retirer.
func (s *session) RetireStats() workload.RetireStats {
	st := workload.RetireStats{Stream: s.hs.RetireStats()}
	if s.rt != nil {
		st.RetiredKeys = s.rt.RetiredKeys()
	}
	return st
}
