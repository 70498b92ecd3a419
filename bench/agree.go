package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the repeatability tool reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics are pure functions of the seed on the one-client workloads:
// the same seed must give the same value, to the last digit, on every run.
var exactMetrics = map[string]bool{"after_cost_per_stmt": true, "index_bytes": true}

// exactOn reports whether the workload makes the exact metrics exact: with
// two foreground clients the interleaving decides which epoch-boundary set
// is recommended.
func exactOn(workload string) bool { return workload != "tpcc_drift2" }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the benchmark driver computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// wallKey is the pseudo-metric runFresh adds: the fresh process's wall time.
const wallKey = "process_wall_s"

// runFresh runs one workload in a fresh process and parses the summary the
// process prints as its last line.
func runFresh(workload string, seed int64, seconds float64, outDir string) (map[string]jsonVal, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s%s", workload, seed, err, stdout.String(), stderr.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var summary struct {
		Correct bool               `json:"correct"`
		Failed  int64              `json:"failed"`
		Metrics map[string]jsonVal `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &summary); err != nil {
		return nil, fmt.Errorf("%s seed %d: parse summary: %w", workload, seed, err)
	}
	if !summary.Correct || summary.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: run incorrect (%d failed operations)", workload, seed, summary.Failed)
	}
	// The process's own wall time rides along for the report's header.
	summary.Metrics[wallKey] = jsonVal{Value: time.Since(start).Seconds(), Unit: "s"}
	return summary.Metrics, nil
}

// agreeMain runs two sets of n fresh-process runs per workload (seed,
// seed+1, … in both sets) and compares them the way the benchmark driver
// does: per metric, each set's median and quartiles, the spread
// (Q3-Q1)/median against the bound, and how much worse the second median is
// than the first. It fails when an end-to-end metric disagrees beyond its
// bound or an exact metric differs at all for one seed.
func agreeMain(defs []*workloadDef, n int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: -agree runs from the repository root: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	outDir, err := os.MkdirTemp("", "bench-agree")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(outDir)
	failed := false
	for _, def := range defs {
		// sets[s][i] is run i of set s.
		var sets [2][]map[string]jsonVal
		for i := 0; i < n; i++ {
			// Alternate which set runs first, so slow drift of the machine
			// lands on both.
			for k := 0; k < 2; k++ {
				s := (i + k) % 2
				m, err := runFresh(def.name, seed+int64(i), seconds, outDir)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				sets[s] = append(sets[s], m)
			}
		}
		var walls []float64
		for _, set := range sets {
			for _, m := range set {
				walls = append(walls, m[wallKey].Value)
			}
		}
		fmt.Fprintf(stdout, "== %s: 2 sets of %d runs, seeds %d..%d, median process wall %.1fs\n",
			def.name, n, seed, seed+int64(n)-1, median(walls))
		fmt.Fprintf(stdout, "%-20s %-7s %14s %14s %14s %8s | %14s %8s | %8s %6s\n",
			"metric", "unit", "A q1", "A median", "A q3", "A iqr", "B median", "B iqr", "B worse", "bound")
		for _, m := range bf.EndToEnd {
			var a, b []float64
			for i := 0; i < n; i++ {
				a = append(a, sets[0][i][m.Name].Value)
				b = append(b, sets[1][i][m.Name].Value)
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			spreadA, spreadB := (aq3-aq1)/amed, (bq3-bq1)/bmed
			gap := worseBy(amed, bmed, m.Better)
			verdict := "ok"
			if gap > m.Bound {
				verdict = "DISAGREE"
				failed = true
			}
			if m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound) {
				verdict = "SPREAD"
				failed = true
			}
			if exactMetrics[m.Name] && exactOn(def.name) {
				for i := 0; i < n; i++ {
					if a[i] != b[i] {
						verdict = "INEXACT"
						failed = true
					}
				}
				if verdict == "ok" {
					verdict = "ok exact"
				}
			}
			fmt.Fprintf(stdout, "%-20s %-7s %14.4f %14.4f %14.4f %7.2f%% | %14.4f %7.2f%% | %+7.2f%% %5.0f%% %s\n",
				m.Name, m.Unit, aq1, amed, aq3, 100*spreadA, bmed, 100*spreadB, 100*gap, 100*m.Bound, verdict)
			if verdict != "ok" && verdict != "ok exact" {
				fmt.Fprintf(stdout, "    A by seed: %.5g\n    B by seed: %.5g\n", a, b)
			}
		}
	}
	if failed {
		fmt.Fprintln(stdout, "agree: FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "agree: ok")
	return 0
}
