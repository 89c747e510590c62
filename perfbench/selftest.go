package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"jsonpark/internal/runtime"
	"jsonpark/internal/ssb"
	"jsonpark/internal/variant"
)

// selfTest runs every workload end to end at tiny sizes, traced and
// untraced, on two seeds; checks that traced counts repeat exactly, that a
// corrupted expected output fails the run, that the SSB reference agrees
// with the interpreter, and that BENCHMARK.json names what the runs report.
func selfTest(w io.Writer, specPath, out string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if got, want := specNames(sp.EndToEnd), strings.Join(endToEnd, ","); got != want {
		return fmt.Errorf("BENCHMARK.json end_to_end = %s, the benchmark reports %s", got, want)
	}
	if got, want := specNames(sp.PerLayer), strings.Join(perLayer, ","); got != want {
		return fmt.Errorf("BENCHMARK.json per_layer = %s, the benchmark reports %s", got, want)
	}
	var names []string
	for _, wl := range sp.Workloads {
		names = append(names, wl.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		return fmt.Errorf("BENCHMARK.json workloads = %v, the benchmark runs %v", names, have)
	}

	if err := ssbCrossCheck(); err != nil {
		return err
	}
	fmt.Fprintln(w, "ok  ssb reference agrees with the interpreter at scale factor", tinySizes.SSBScale)

	for _, wl := range have {
		base := config{workload: wl, seconds: 1, out: out, sz: tinySizes}
		for _, c := range []config{withSeed(base, 1, false), withSeed(base, 7, false)} {
			res, err := run(c)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, c.seed, err)
			}
			if !res.correct() {
				return fmt.Errorf("%s seed %d: %d of %d operations failed: %s", wl, c.seed, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
			}
		}
		var counts []map[string]float64
		for i := 0; i < 2; i++ {
			c := withSeed(base, 7, true)
			res, err := run(c)
			if err != nil {
				return fmt.Errorf("%s traced: %w", wl, err)
			}
			if !res.correct() {
				return fmt.Errorf("%s traced: %d failed: %s", wl, res.Failed, strings.Join(res.Errors, "; "))
			}
			m := map[string]float64{}
			for _, n := range countMetrics {
				m[n] = res.Metrics[n].Value
			}
			counts = append(counts, m)
			spans := filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", wl, c.seed))
			if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
				return fmt.Errorf("%s traced: no span file %s (%v)", wl, spans, err)
			}
		}
		for _, n := range countMetrics {
			if counts[0][n] != counts[1][n] {
				return fmt.Errorf("%s: count %s differs between traced runs: %v vs %v", wl, n, counts[0][n], counts[1][n])
			}
		}
		neg := withSeed(base, 1, false)
		neg.corrupt = true
		res, err := run(neg)
		if err != nil {
			return fmt.Errorf("%s negative case: %w", wl, err)
		}
		if res.correct() {
			return fmt.Errorf("%s: a corrupted expected output did not fail the run", wl)
		}
		fmt.Fprintf(w, "ok  %s: seeds 1 and 7 match the oracle, traced counts repeat, corrupted oracle fails\n", wl)
	}
	return nil
}

func withSeed(c config, seed int64, trace bool) config {
	c.seed, c.trace = seed, trace
	return c
}

// ssbCrossCheck compares the SSB reference (handwritten SQL on the
// conservative engine) with the interpreter, where the interpreter's
// nested-loop joins still finish.
func ssbCrossCheck() error {
	colls := ssbCollections(3, tinySizes.SSBScale)
	w, err := conservative(colls)
	if err != nil {
		return err
	}
	t := ssb.Generate(3, ssb.SizesForScaleFactor(tinySizes.SSBScale))
	rt := runtime.New(runtime.ProfileDefault)
	t.LoadRuntime(rt)
	for _, q := range ssb.Queries() {
		hand, _, err := ssb.RunHandwritten(w.Engine(), q)
		if err != nil {
			return err
		}
		interp, err := ssb.RunInterpreted(rt, q)
		if err != nil {
			return err
		}
		// The same empty-SUM rule as the workload's oracle: NULL from SQL,
		// 0 from JSONiq.
		if len(hand) == 1 && len(interp) == 1 && strings.HasPrefix(hand[0], "n") && interp[0] == variant.Int(0).HashKey() {
			hand = interp
		}
		if !hand.Equal(interp) {
			return fmt.Errorf("ssb %s: reference and interpreter disagree", q.ID)
		}
	}
	return nil
}
