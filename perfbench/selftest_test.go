package main

import (
	"io"
	"testing"
)

func TestSelfTest(t *testing.T) {
	if err := selfTest(io.Discard, "../BENCHMARK.json", t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 102, 98, 100, 103, 97, 100, 101}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b     []float64
		pairs int
		want  string
	}{
		{scaled(0.8), 10, "better"},
		{scaled(1), 10, "unchanged"},
		{scaled(1.3), 10, "worse"},
		{scaled(0.8), 3, "unchanged"},
	} {
		if got, _ := verdict(base, c.b, c.pairs, true, 0.25); got != c.want {
			t.Errorf("verdict(%v pairs, B=%v) = %s, want %s", c.pairs, c.b[0], got, c.want)
		}
	}
	// Every run of B beats every run of A, but the medians (145 and 97.25)
	// differ by less than A's interquartile distance (117.5 to 172.5): no
	// regression, and no gain either.
	wide := []float64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
	near := []float64{95, 95.5, 96, 96.5, 97, 97.5, 98, 98.5, 99, 99.5}
	if got, share := verdict(wide, near, 10, true, 0.25); got != "unchanged" || share != 1 {
		t.Errorf("verdict(B all better, gain within A's spread) = %s (share %v), want unchanged (share 1)", got, share)
	}
}
