package listappend

import (
	"repro/internal/history"
	"repro/internal/op"
)

// elemCols is one key's element columns. Every element appended to the
// key is interned, on its first attempt, to a dense per-key ordinal,
// and the columns are indexed by that ordinal. Recoverability (§4.2.3)
// reads straight off them: an element's writer is its only attempt if
// that attempt did not abort, its failed writer is its only attempt if
// it did, and an element attempted twice has neither.
type elemCols struct {
	ord    map[int]int32 // element -> ordinal
	first  []int         // op index of the element's first attempt
	count  []int32       // number of attempts
	failed []bool        // the first attempt aborted
	// dups holds, for each element attempted more than once, every
	// attempt's op index in arrival order; nil until the first.
	dups map[int][]int
	// commits lists the key's committed appends in op order. Only
	// recorded when lost updates are checked.
	commits []commitAppend
}

// commitAppend is one committed append: the appending transaction, the
// index of its completion, and the element with its ordinal.
type commitAppend struct {
	txn, completed, elem int
	ord                  int32
}

// attempt records an append of e by op txn and returns e's ordinal.
func (c *elemCols) attempt(e, txn int, failed bool) int32 {
	i, ok := c.ord[e]
	if !ok {
		i = int32(len(c.first))
		c.ord[e] = i
		c.first = append(c.first, txn)
		c.count = append(c.count, 1)
		c.failed = append(c.failed, failed)
		return i
	}
	c.count[i]++
	if c.dups == nil {
		c.dups = map[int][]int{}
	}
	if c.count[i] == 2 {
		c.dups[e] = []int{c.first[i]}
	}
	c.dups[e] = append(c.dups[e], txn)
	return i
}

// lookup returns e's ordinal, if any completed op attempted to append
// it. A nil column (a key nothing appended to) has no elements.
func (c *elemCols) lookup(e int) (int32, bool) {
	if c == nil {
		return 0, false
	}
	i, ok := c.ord[e]
	return i, ok
}

// writer returns the op index of ordinal i's unique non-aborted attempt.
func (c *elemCols) writer(i int32) (int, bool) {
	return c.first[i], c.count[i] == 1 && !c.failed[i]
}

// failedWriter returns the op index of ordinal i's unique attempt, if
// that attempt aborted.
func (c *elemCols) failedWriter(i int32) (int, bool) {
	return c.first[i], c.count[i] == 1 && c.failed[i]
}

// writerOf is writer by element.
func (c *elemCols) writerOf(e int) (int, bool) {
	if i, ok := c.lookup(e); ok {
		return c.writer(i)
	}
	return 0, false
}

// failedWriterOf is failedWriter by element.
func (c *elemCols) failedWriterOf(e int) (int, bool) {
	if i, ok := c.lookup(e); ok {
		return c.failedWriter(i)
	}
	return 0, false
}

// colAt returns key k's columns, or nil if nothing appended to k.
func (a *analyzer) colAt(k history.KeyID) *elemCols {
	if int(k) < len(a.cols) {
		return a.cols[k]
	}
	return nil
}

// colFor returns key k's columns, creating them on first use.
func (a *analyzer) colFor(k history.KeyID) *elemCols {
	a.cols = history.GrowKeyed(a.cols, k)
	c := a.cols[k]
	if c == nil {
		c = &elemCols{ord: map[int]int32{}}
		a.cols[k] = c
	}
	return c
}

// pendingAppend reports whether an invocation no completion paired —
// a crashed client's — appended e to key k. Such an append may have
// taken effect, so reading it is not garbage, but it is neither an
// attempt nor a writer. The index is built once, on the first probe.
func (a *analyzer) pendingAppend(k history.KeyID, e int) bool {
	a.pendingOnce.Do(a.indexPending)
	return int(k) < len(a.pending) && a.pending[k][e]
}

// indexPending indexes the appends of a.h's unpaired invocations. A
// completion pairs with its process's outstanding invocation (see
// history.New), so the invocations still open at the end are unpaired.
func (a *analyzer) indexPending() {
	open := map[int]int{} // process -> position of its open invocation
	for pos, o := range a.h.Ops {
		if o.Type == op.Invoke {
			open[o.Process] = pos
		} else {
			delete(open, o.Process)
		}
	}
	for _, pos := range open {
		for _, m := range a.h.Ops[pos].Mops {
			if m.F != op.FAppend {
				continue
			}
			k, ok := a.in.ID(m.Key)
			if !ok {
				continue // no read can name a key the interner lacks
			}
			a.pending = history.GrowKeyed(a.pending, k)
			if a.pending[k] == nil {
				a.pending[k] = map[int]bool{}
			}
			a.pending[k][m.Arg] = true
		}
	}
}

// firstRepeat returns the first element of list equal to an earlier
// one. Callers skip it when the list's ordinals strictly increase,
// which proves it duplicate-free.
func firstRepeat(list []int) (int, bool) {
	seen := make(map[int]bool, len(list))
	for _, e := range list {
		if seen[e] {
			return e, true
		}
		seen[e] = true
	}
	return 0, false
}
