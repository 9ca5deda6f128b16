// Command benchdiff compares two benchmark snapshots produced by benchjson
// and fails when the candidate regresses past the configured thresholds —
// the repo's perf-regression gate (`make bench-diff`, and the CI job of the
// same name):
//
//	benchdiff [flags] BASELINE.json CANDIDATE.json
//
// Only benchmarks present in BOTH snapshots are compared, keyed by package
// plus name; benchmarks that appear or disappear are reported but never
// fail the gate (new benchmarks must not need a baseline backfill to land).
// For each common benchmark three dimensions are checked:
//
//   - ns/op may grow by at most -ns-threshold percent,
//   - allocs/op may grow by at most -alloc-threshold percent (a zero
//     baseline allows zero growth: 0 → 1 allocs is always a regression),
//   - B/op may grow by at most -bytes-threshold percent.
//
// Benchmarks whose baseline ns/op is below -min-ns are exempt from the
// ns/op check: at single-digit nanoseconds, scheduler jitter swamps any
// real signal. Per-benchmark overrides via repeatable
// -rule 'NAME=ns:PCT[,alloc:PCT][,bytes:PCT]' (NAME is a substring match
// against "package BenchmarkName", so a rule can scope to one benchmark, a
// family, or a whole package) take precedence over the global thresholds;
// when several rules match, the last one wins.
//
// Exit status: 0 when clean, 1 on usage or unreadable input, 2 when at
// least one benchmark regressed or when no benchmark is common to both
// snapshots (a gate that compared nothing has shown nothing) — so CI can
// distinguish "broken gate" from "perf regression".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

type thresholds struct {
	nsPct    float64
	allocPct float64
	bytesPct float64
}

type rule struct {
	substr string
	th     thresholds
}

type ruleFlag struct {
	rules []rule
	def   *thresholds
}

func (f *ruleFlag) String() string { return fmt.Sprintf("%d rules", len(f.rules)) }

// Set parses 'NAME=ns:PCT[,alloc:PCT][,bytes:PCT]'. Dimensions left out
// keep the global threshold.
func (f *ruleFlag) Set(s string) error {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("rule %q: want NAME=dim:pct[,dim:pct...]", s)
	}
	r := rule{substr: name, th: *f.def}
	for _, part := range strings.Split(spec, ",") {
		dim, pctStr, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("rule %q: bad clause %q", s, part)
		}
		pct, err := strconv.ParseFloat(pctStr, 64)
		if err != nil {
			return fmt.Errorf("rule %q: bad percentage %q", s, pctStr)
		}
		switch dim {
		case "ns":
			r.th.nsPct = pct
		case "alloc":
			r.th.allocPct = pct
		case "bytes":
			r.th.bytesPct = pct
		default:
			return fmt.Errorf("rule %q: unknown dimension %q (want ns, alloc, or bytes)", s, dim)
		}
	}
	f.rules = append(f.rules, r)
	return nil
}

// growthPct is the relative growth of cand over base in percent. A zero
// baseline with a nonzero candidate is infinite growth; zero over zero is
// no growth.
func growthPct(base, cand float64) float64 {
	if base == 0 {
		if cand == 0 {
			return 0
		}
		return 1e18
	}
	return (cand - base) / base * 100
}

type finding struct {
	key  string
	dim  string
	base float64
	cand float64
	pct  float64
	lim  float64
}

func compare(base, cand benchfmt.Snapshot, def thresholds, rules []rule, minNs float64, out *strings.Builder) (regressions []finding, compared int) {
	baseBy := map[string]benchfmt.Record{}
	for _, r := range base.Benchmarks {
		baseBy[r.Key()] = r
	}
	candBy := map[string]benchfmt.Record{}
	keys := []string{}
	for _, r := range cand.Benchmarks {
		candBy[r.Key()] = r
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)

	var onlyBase, onlyCand []string
	for k := range baseBy {
		if _, ok := candBy[k]; !ok {
			onlyBase = append(onlyBase, k)
		}
	}
	for _, k := range keys {
		if _, ok := baseBy[k]; !ok {
			onlyCand = append(onlyCand, k)
		}
	}
	sort.Strings(onlyBase)

	for _, k := range keys {
		b, ok := baseBy[k]
		if !ok {
			continue
		}
		c := candBy[k]
		compared++
		// Rules match the full key ("pkg BenchmarkName"), so a substring can
		// scope to one benchmark, a family, or a whole package.
		th := def
		for _, r := range rules {
			if strings.Contains(k, r.substr) {
				th = r.th
			}
		}
		checks := []struct {
			dim        string
			base, cand float64
			lim        float64
			skip       bool
		}{
			{"ns/op", b.NsPerOp, c.NsPerOp, th.nsPct, b.NsPerOp < minNs},
			{"allocs/op", float64(b.AllocsPerOp), float64(c.AllocsPerOp), th.allocPct, false},
			{"B/op", float64(b.BytesPerOp), float64(c.BytesPerOp), th.bytesPct, false},
		}
		for _, ch := range checks {
			if ch.skip {
				continue
			}
			pct := growthPct(ch.base, ch.cand)
			if pct > ch.lim {
				regressions = append(regressions, finding{
					key: k, dim: ch.dim, base: ch.base, cand: ch.cand, pct: pct, lim: ch.lim,
				})
			}
		}
	}

	fmt.Fprintf(out, "benchdiff: %d common benchmarks compared\n", compared)
	fmt.Fprintf(out, "  baseline:  %s\n", base.Label())
	fmt.Fprintf(out, "  candidate: %s\n", cand.Label())
	if len(onlyBase) > 0 {
		fmt.Fprintf(out, "  only in baseline (ignored): %s\n", strings.Join(onlyBase, ", "))
	}
	if len(onlyCand) > 0 {
		fmt.Fprintf(out, "  only in candidate (ignored): %s\n", strings.Join(onlyCand, ", "))
	}
	for _, f := range regressions {
		if f.base == 0 {
			fmt.Fprintf(out, "REGRESSION %s %s: %.4g -> %.4g (baseline zero, limit +%.1f%%)\n",
				f.key, f.dim, f.base, f.cand, f.lim)
			continue
		}
		fmt.Fprintf(out, "REGRESSION %s %s: %.4g -> %.4g (%+.1f%%, limit +%.1f%%)\n",
			f.key, f.dim, f.base, f.cand, f.pct, f.lim)
	}
	if compared == 0 {
		fmt.Fprintf(out, "NO OVERLAP: no benchmark is common to both snapshots\n")
	} else if len(regressions) == 0 {
		fmt.Fprintf(out, "  no regressions\n")
	}
	return regressions, compared
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments, output streams, and exit status made
// explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := thresholds{}
	fs.Float64Var(&def.nsPct, "ns-threshold", 25, "max ns/op growth in percent")
	fs.Float64Var(&def.allocPct, "alloc-threshold", 0, "max allocs/op growth in percent")
	fs.Float64Var(&def.bytesPct, "bytes-threshold", 10, "max B/op growth in percent")
	minNs := fs.Float64("min-ns", 10, "skip the ns/op check when the baseline is below this many ns (noise floor)")
	rules := &ruleFlag{def: &def}
	fs.Var(rules, "rule", "per-benchmark override 'NAME=ns:PCT[,alloc:PCT][,bytes:PCT]' (substring match, repeatable)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] BASELINE.json CANDIDATE.json")
		return 1
	}
	base, err := benchfmt.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	cand, err := benchfmt.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	var out strings.Builder
	regressions, compared := compare(base, cand, def, rules.rules, *minNs, &out)
	io.WriteString(stdout, out.String())
	if len(regressions) > 0 || compared == 0 {
		return 2
	}
	return 0
}
