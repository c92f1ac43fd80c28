package workload

import (
	"repro/internal/binhist"
	"repro/internal/history"
)

// RetireStats reports how much of a budgeted streaming session has been
// retired: the history stream's own counters plus the analyzer state
// the session released. Settled graph regions are dropped, not kept, so
// they have no counter here.
type RetireStats struct {
	// Stream is the underlying op stream's retirement counters.
	Stream history.RetireStats
	// RetiredKeys counts keys whose per-key analyzer state (version
	// orders, clean-read caches) has been released. A key seen again
	// after retirement is treated as brand new and counted again.
	RetiredKeys int
}

// Retirer is the optional Session extension a budget-aware session
// implements so callers (core.Stream, the service's status endpoint)
// can report resident/retired progress without knowing the workload.
type Retirer interface {
	RetireStats() RetireStats
}

// StreamBudget translates Opts memory settings into a history.Budget
// over the production ellebin segment codec. A zero MemoryBudget yields
// the zero Budget, which disables retirement.
func StreamBudget(opts Opts) history.Budget {
	if opts.MemoryBudget <= 0 {
		return history.Budget{}
	}
	return history.Budget{
		Window:   opts.MemoryBudget,
		Codec:    binhist.Segments{},
		SpillDir: opts.SpillDir,
	}
}

// KeyTracker is the quiescence bookkeeping shared by the native
// budget-aware sessions: it timestamps every key's last touch in
// completion counts, refcounts which ops each live key pins, and sweeps
// out keys untouched for a full window. The session applies the sweep
// result to its own per-key caches and op indices; the tracker itself
// holds only ints. A retired key seen again is simply re-tracked from
// zero — sessions treat resurrected keys as brand new, which is sound
// for provisional findings (Finish re-analyzes the full history).
type KeyTracker struct {
	window    int
	comps     int
	lastSweep int
	lastTouch []int   // per KeyID: comps at last touch; 0 = unseen or retired
	opsOfKey  [][]int // per KeyID: op indices pinned by this key
	refs      map[int]int
	retired   int
}

// NewKeyTracker tracks quiescence over the given completion window.
func NewKeyTracker(window int) *KeyTracker {
	return &KeyTracker{window: window, refs: map[int]int{}}
}

// NoteOp records one completion op touching the given keys (duplicates
// tolerated; the op is pinned once per distinct key).
func (t *KeyTracker) NoteOp(index int, keys []history.KeyID) {
	t.comps++
	for i, k := range keys {
		dup := false
		for _, p := range keys[:i] {
			if p == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		t.lastTouch = history.GrowKeyed(t.lastTouch, k)
		t.opsOfKey = history.GrowKeyed(t.opsOfKey, k)
		t.lastTouch[k] = t.comps
		t.opsOfKey[k] = append(t.opsOfKey[k], index)
		t.refs[index]++
	}
}

// LiveOp reports whether any live key still pins op index — the keep
// predicate for graph retirement.
func (t *KeyTracker) LiveOp(index int) bool { return t.refs[index] > 0 }

// Sweep retires every key untouched for a full window, returning the
// retired keys and the ops no longer pinned by any live key (both nil
// when a window hasn't elapsed since the last sweep). The caller drops
// its own state for exactly those keys and ops.
func (t *KeyTracker) Sweep() (dead []history.KeyID, deadOps []int) {
	if t.comps-t.lastSweep < t.window {
		return nil, nil
	}
	t.lastSweep = t.comps
	horizon := t.comps - t.window
	for k, touch := range t.lastTouch {
		if touch == 0 || touch > horizon {
			continue
		}
		dead = append(dead, history.KeyID(k))
		t.lastTouch[k] = 0
		for _, i := range t.opsOfKey[k] {
			if t.refs[i]--; t.refs[i] == 0 {
				delete(t.refs, i)
				deadOps = append(deadOps, i)
			}
		}
		t.opsOfKey[k] = nil
	}
	t.retired += len(dead)
	return dead, deadOps
}

// RetiredKeys returns the total keys retired over the tracker's life.
func (t *KeyTracker) RetiredKeys() int { return t.retired }
