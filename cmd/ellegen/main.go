// Command ellegen generates a transaction history against the in-memory
// engine and writes it as JSON lines (or, with -format binary, as an
// ellebin stream — see docs/FORMATS.md), ready for `elle` to check. It
// is the recording half of the record/check pipeline: pick an isolation
// level and (optionally) named faults, and pipe the result into the
// checker.
//
//	ellegen -iso snapshot-isolation -faults tidb -txns 2000 | elle -model snapshot-isolation -
//
// Flags:
//
//	-workload KIND   any registered workload: list-append (default),
//	                 rw-register, set-add, counter, bank, or an alias
//	-iso LEVEL       read-uncommitted, read-committed, snapshot-isolation,
//	                 serializable, strict-serializable (default)
//	-faults NAMES    none (default), a campaign name (its faults: tidb,
//	                 yugabyte, fauna, dgraph, …), or a comma-separated
//	                 list of catalog faults (stale-read,abort); see
//	                 `ellecase -list`
//	-clients N       concurrent client threads (default 10)
//	-txns N          transactions to run (default 1000)
//	-keys N          active keys (default 5)
//	-writes-per-key N  key retirement width (default 100)
//	-abort P         spontaneous abort probability (default 0; a positive
//	                 value overrides the abort fault's)
//	-info P          lost-commit-ack probability (default 0; a positive
//	                 value overrides the lost-ack fault's)
//	-timestamps      expose engine timestamps in op times
//	-seed N          run seed (default 1)
//	-format FORMAT   output format: json (default) or binary (ellebin)
//	-o FILE          output path (default stdout)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/binhist"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/jsonhist"
	"repro/internal/memdb"
	"repro/internal/nemesis"
	"repro/internal/workload"

	// Populate the workload registry so -workload resolves every
	// built-in analyzer.
	_ "repro/internal/workload/all"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ellegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "list",
		"workload: "+workload.NameList()+" (or an alias)")
	iso := fs.String("iso", "strict-serializable", "engine isolation level")
	faults := fs.String("faults", "none", "none, a campaign name, or comma-separated catalog faults (see ellecase -list)")
	clients := fs.Int("clients", 10, "concurrent client threads")
	txns := fs.Int("txns", 1000, "transactions to run")
	keys := fs.Int("keys", 5, "active keys")
	width := fs.Int("writes-per-key", 100, "writes per key before retirement")
	abort := fs.Float64("abort", 0, "spontaneous abort probability")
	infoProb := fs.Float64("info", 0, "lost-commit-ack probability")
	timestamps := fs.Bool("timestamps", false, "expose engine timestamps in op times")
	seed := fs.Int64("seed", 1, "run seed")
	format := fs.String("format", "json", "output format: json or binary (ellebin)")
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var encode func(io.Writer, *history.History) error
	switch *format {
	case "json", "jsonl":
		encode = jsonhist.Encode
	case "binary", "ellebin":
		encode = binhist.Encode
	default:
		fmt.Fprintf(stderr, "ellegen: unknown format %q (json or binary)\n", *format)
		return 2
	}

	info, ok := workload.Lookup(*workloadFlag)
	if !ok {
		fmt.Fprintf(stderr, "ellegen: unknown workload %q; choose from:\n", *workloadFlag)
		for _, name := range workload.Names() {
			fmt.Fprintf(stderr, "  %s\n", name)
		}
		return 2
	}

	var level memdb.Isolation
	switch *iso {
	case "read-uncommitted":
		level = memdb.ReadUncommitted
	case "read-committed":
		level = memdb.ReadCommitted
	case "snapshot-isolation", "si":
		level = memdb.SnapshotIsolation
	case "serializable":
		level = memdb.Serializable
	case "strict-serializable":
		level = memdb.StrictSerializable
	default:
		fmt.Fprintf(stderr, "ellegen: unknown isolation %q\n", *iso)
		return 2
	}

	plan, err := faultPlan(*faults)
	if err != nil {
		fmt.Fprintf(stderr, "ellegen: -faults: %v\n", err)
		return 2
	}
	if *abort > 0 {
		plan.AbortProb = *abort
	}
	if *infoProb > 0 {
		plan.InfoProb = *infoProb
	}
	plan.Timestamps = plan.Timestamps || *timestamps

	g := gen.New(gen.Config{
		Workload: info.Gen, ActiveKeys: *keys, MaxWritesPerKey: *width,
	}, *seed)
	h := memdb.Run(memdb.RunConfig{
		Clients: *clients, Txns: *txns, Isolation: level, Faults: plan.Faults,
		Source: g, Seed: *seed, Workload: info.DB,
		AbortProb: plan.AbortProb, InfoProb: plan.InfoProb, CrashProb: plan.CrashProb,
		ClockSkewProb: plan.ClockSkewProb, ClockSkewMax: plan.ClockSkewMax,
		ExposeTimestamps: plan.Timestamps,
	})

	w := stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "ellegen: %v\n", err)
			return 2
		}
		defer file.Close()
		w = file
	}
	if err := encode(w, h); err != nil {
		fmt.Fprintf(stderr, "ellegen: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "ellegen: wrote %d ops (%d transactions, %s, %s, faults=%s)\n",
		h.Len(), *txns, info.Name, level, *faults)
	return 0
}

// faultPlan resolves -faults: none, a campaign name (expanding to that
// campaign's faults), or a comma-separated list of catalog faults.
func faultPlan(spec string) (nemesis.Plan, error) {
	if spec == "none" || spec == "" {
		return nemesis.Plan{}, nil
	}
	if c, ok := nemesis.Find(spec); ok {
		return nemesis.NewPlan(c.Faults)
	}
	return nemesis.NewPlan(strings.Split(spec, ","))
}
