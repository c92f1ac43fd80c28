// Export: generate a history with injected faults, write it as JSON
// lines, and re-check it through the same decoder the elle CLI uses —
// the round trip a real test harness performs when it records histories
// on one machine and analyzes them on another.
//
// Run with:
//
//	go run ./examples/export            # writes history.jsonl, then checks it
//	go run ./examples/export | head     # inspect the wire format
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/nemesis"
)

func main() {
	// Record: a snapshot-isolated run with TiDB-style retries.
	plan, err := nemesis.NewPlan([]string{"retry-stomp", "retry-rebase"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	g := gen.New(gen.Config{ActiveKeys: 4, MaxWritesPerKey: 50}, 5)
	h := memdb.Run(memdb.RunConfig{
		Clients:   8,
		Txns:      1000,
		Isolation: memdb.SnapshotIsolation,
		Faults:    plan.Faults,
		Source:    g,
		Seed:      5,
	})

	// Export to JSON lines.
	var buf bytes.Buffer
	if err := jsonhist.Encode(&buf, h); err != nil {
		fmt.Fprintln(os.Stderr, "encode:", err)
		os.Exit(1)
	}
	const path = "history.jsonl"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d ops (%d bytes) to %s\n", h.Len(), buf.Len(), path)

	// Re-import and check, exactly as `elle -model snapshot-isolation
	// history.jsonl` would.
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer f.Close()
	back, err := jsonhist.Decode(f, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decode:", err)
		os.Exit(1)
	}
	res := core.Check(back, core.OptsFor(core.ListAppend, consistency.SnapshotIsolation))
	fmt.Println()
	fmt.Print(res.Summary())

	// A retried-writes database cannot be snapshot isolated; show the
	// first cycle witness as proof.
	for _, a := range res.Anomalies {
		if len(a.Cycle.Steps) > 0 {
			fmt.Println()
			fmt.Printf("=== first cycle witness: %s ===\n", a.Type)
			fmt.Println(a.Explanation)
			break
		}
	}
}
