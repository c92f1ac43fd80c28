package main

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/binhist"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/workload"
)

// input describes one generated history file: its shape, where it was
// written, and what it holds.
type input struct {
	workload  string // analyzer name passed to elle -workload
	model     string // consistency model elle checks against
	binary    bool   // ellebin instead of JSON lines
	txns      int
	clients   int
	keys      int
	infoProb  float64
	isolation memdb.Isolation
	faults    memdb.Faults

	path        string
	ops         int // every op in the file, invocations included
	completions int // completion ops, the count elled reports as ingested
	bytes       int64
}

// generate builds the history from seed with the same generator and
// engine ellegen uses, and writes it to in.path. The program under test
// only ever sees the file.
func (in *input) generate(seed int64) error {
	info, ok := workload.Lookup(in.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", in.workload)
	}
	g := gen.New(gen.Config{
		Workload:        info.Gen,
		ActiveKeys:      in.keys,
		MaxWritesPerKey: 100,
		MinOps:          1,
		MaxOps:          5,
	}, seed)
	h := memdb.Run(memdb.RunConfig{
		Clients:   in.clients,
		Txns:      in.txns,
		Isolation: in.isolation,
		Faults:    in.faults,
		Source:    g,
		Seed:      seed,
		Workload:  info.DB,
		InfoProb:  in.infoProb,
	})
	if err := in.write(h); err != nil {
		return err
	}
	in.ops = h.Len()
	in.completions = len(h.Completions())
	st, err := os.Stat(in.path)
	if err != nil {
		return err
	}
	in.bytes = st.Size()
	return nil
}

func (in *input) write(h *history.History) error {
	f, err := os.Create(in.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if in.binary {
		err = binhist.Encode(w, h)
	} else {
		err = jsonhist.Encode(w, h)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", in.path, err)
	}
	return nil
}
