package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare mode needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads every run record in dir.
func readRecords(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-seed*-trace*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}

// verdict applies the rule for claiming a change: B is better only when,
// over at least ten pairs, it wins nine tenths of them and the medians
// differ by more than A's interquartile distance. B is worse when its
// median is worse than A's by more than the metric's bound (per-layer
// metrics have none, so the better rule is applied in reverse). Where A's
// own spread exceeds the bound the metric is unresolved, unless every run of
// B is better than every run of A: that rules out a regression but, with
// the medians no further apart than A's spread, claims no gain.
func verdict(a, b []float64, pairs int, lowerBetter bool, bound float64) (string, float64) {
	sign := 1.0
	if lowerBetter {
		sign = -1
	}
	n := pairs
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	share := ratio(float64(wins), float64(n))
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	spread := q3 - q1
	gain := sign * (mb - ma)
	allBetter := n > 0 && sign*(minOf(b, sign)-maxOf(a, sign)) > 0
	enough := n >= 10
	switch {
	case enough && share >= 0.9 && gain > spread:
		return "better", share
	case bound > 0 && -gain > bound*math.Abs(ma):
		return "worse", share
	case enough && bound == 0 && ratio(float64(losses), float64(n)) >= 0.9 && -gain > spread:
		return "worse", share
	case bound > 0 && spread > bound*math.Abs(ma) && !allBetter:
		return "unresolved", share
	case bound == 0 && math.Abs(gain) > spread:
		return "unresolved", share
	}
	return "unchanged", share
}

// minOf is the worst value of xs in the metric's good direction (sign +1:
// higher is better), maxOf the best.
func minOf(xs []float64, sign float64) float64 {
	w := math.Inf(1)
	for _, x := range xs {
		w = math.Min(w, sign*x)
	}
	return sign * w
}

func maxOf(xs []float64, sign float64) float64 {
	w := math.Inf(-1)
	for _, x := range xs {
		w = math.Max(w, sign*x)
	}
	return sign * w
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with metric directions and bounds")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--spec BENCHMARK.json] DIR_A DIR_B")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	a, err := readRecords(fs.Arg(0))
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("no run records in %s", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	b, err := readRecords(fs.Arg(1))
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("no run records in %s", fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	compare(os.Stdout, sp, a, b)
	return 0
}

// compare prints, for each workload and metric, both sides' medians and
// quartiles, the share of pairs B won, B's median as a ratio of A's (the
// base), and the verdict. Runs pair up by seed where both sides have it.
func compare(w io.Writer, sp *spec, a, b []*result) {
	metrics := append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...)
	fmt.Fprintf(w, "%-12s %-44s %-9s %-34s %-34s %-22s %-6s %s\n", "workload", "metric", "unit", "A median [q1 q3] n", "B median [q1 q3] n", "B/A (base A median)", "B wins", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range metrics {
			av, bv, pairs := paired(a, b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, share := verdict(av, bv, pairs, m.Better == "lower", m.Bound)
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			ma, mb := median(av), median(bv)
			fmt.Fprintf(w, "%-12s %-44s %-9s %-34s %-34s %-22s %-6.2f %s\n", wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g %.4g] %d", ma, aq1, aq3, len(av)),
				fmt.Sprintf("%.4g [%.4g %.4g] %d", mb, bq1, bq3, len(bv)),
				fmt.Sprintf("%.4f (base %.4g)", ratio(mb, ma), ma), share, v)
		}
	}
}

// paired returns both sides' values of one metric on one workload and the
// number of pairs: runs of the same seed share an index, ahead of the runs
// only one side made. With no seed in common, runs pair in seed order.
func paired(a, b []*result, workload, metric string) ([]float64, []float64, int) {
	pick := func(rs []*result) map[int64]float64 {
		out := map[int64]float64{}
		for _, r := range rs {
			if r.Workload != workload {
				continue
			}
			if m, ok := r.Metrics[metric]; ok {
				out[r.Seed] = m.Value
			}
		}
		return out
	}
	am, bm := pick(a), pick(b)
	var seeds []int64
	for s := range am {
		if _, ok := bm[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var av, bv []float64
	for _, s := range seeds {
		av = append(av, am[s])
		bv = append(bv, bm[s])
	}
	// Seeds only one side ran still count toward its quartiles, after the
	// paired ones.
	for _, s := range sortedSeeds(am) {
		if _, ok := bm[s]; !ok {
			av = append(av, am[s])
		}
	}
	for _, s := range sortedSeeds(bm) {
		if _, ok := am[s]; !ok {
			bv = append(bv, bm[s])
		}
	}
	if len(seeds) == 0 {
		return av, bv, min(len(av), len(bv))
	}
	return av, bv, len(seeds)
}

func sortedSeeds(m map[int64]float64) []int64 {
	out := make([]int64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// specNames lists a spec section's metric names.
func specNames(ms []specMetric) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return strings.Join(names, ",")
}
