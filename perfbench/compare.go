package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// record is one run's result as --out appends it: every metric's median
// with the quartiles and sample count it rests on.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]recMetric `json:"metrics"`
	Notes     []string             `json:"notes,omitempty"`
}

type recMetric struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

func newRecord(m *measurement) record {
	return record{Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]recMetric)}
}

// put stores a metric. A metric with no samples reads 0, so the result
// stays valid JSON; its n of 0 says why.
func (r *record) put(name, unit string, s summary) {
	clean := func(f float64) float64 {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0
		}
		return f
	}
	r.Metrics[name] = recMetric{Value: clean(s.Median), Q1: clean(s.Q1), Q3: clean(s.Q3), N: s.N, Unit: unit}
}

// benchSpec is the part of BENCHMARK.json compare mode needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one commit's view of one metric on one workload: the values
// of its runs.
type side struct {
	values []float64
	// within is the single run's own quartiles, used as the spread when a
	// side has only one run.
	within [2]float64
}

func (s side) summary() summary {
	sm := summarize(s.values)
	if len(s.values) == 1 {
		sm.Q1, sm.Q3 = s.within[0], s.within[1]
	}
	return sm
}

// Verdicts.
const (
	vUnchanged  = "unchanged"
	vBetter     = "better"
	vWorse      = "WORSE"
	vUnresolved = "unresolved"
)

// judge compares two sides of a metric. A change counts only when the
// medians differ by more than bound (a share of the old median). When
// either side's spread between runs is wider than bound the metric is
// unresolved, unless every new run reads better than every old run.
func judge(old, cur side, better string, bound float64) (verdict string, change float64) {
	o, n := old.summary(), cur.summary()
	if o.Median != 0 {
		change = (n.Median - o.Median) / math.Abs(o.Median)
	}
	gain := change
	if better == "lower" {
		gain = -change
	}
	if o.spread() > bound || n.spread() > bound {
		if allBetter(old.values, cur.values, better) {
			return vBetter, change
		}
		return vUnresolved, change
	}
	switch {
	case gain < -bound:
		return vWorse, change
	case gain > bound:
		return vBetter, change
	}
	return vUnchanged, change
}

func allBetter(old, cur []float64, better string) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	for _, o := range old {
		for _, n := range cur {
			if (better == "lower" && n >= o) || (better != "lower" && n <= o) {
				return false
			}
		}
	}
	return true
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRecords(f, path)
}

func parseRecords(r io.Reader, name string) ([]record, error) {
	var recs []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// sides groups the end-to-end records of one workload by metric.
func sides(recs []record, workload string) map[string]side {
	out := make(map[string]side)
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		for name, m := range r.Metrics {
			s := out[name]
			s.values = append(s.values, m.Value)
			s.within = [2]float64{m.Q1, m.Q3}
			out[name] = s
		}
	}
	return out
}

// compareRows renders one row per workload: for each end-to-end metric
// both medians with their quartiles, the change, and the verdict.
func compareRows(old, cur []record, spec benchSpec) []string {
	seen := make(map[string]bool)
	var workloads []string
	for _, r := range append(append([]record(nil), old...), cur...) {
		if r.Trace == 0 && !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	sort.Strings(workloads)
	var rows []string
	for _, w := range workloads {
		oldSides, newSides := sides(old, w), sides(cur, w)
		cells := []string{w}
		for _, ms := range spec.EndToEnd {
			o, okO := oldSides[ms.Name]
			n, okN := newSides[ms.Name]
			if !okO || !okN {
				cells = append(cells, fmt.Sprintf("%s: missing", ms.Name))
				continue
			}
			v, change := judge(o, n, ms.Better, ms.Bound)
			so, sn := o.summary(), n.summary()
			cells = append(cells, fmt.Sprintf("%s %s: %.4g [%.4g,%.4g] n=%d -> %.4g [%.4g,%.4g] n=%d %+.1f%% (bound %.0f%%)",
				ms.Name, v, so.Median, so.Q1, so.Q3, len(o.values), sn.Median, sn.Q1, sn.Q3, len(n.values), 100*change, 100*ms.Bound))
		}
		rows = append(rows, strings.Join(cells, " | "))
	}
	return rows
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark description giving each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] OLD NEW")
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *benchPath, err)
		return 2
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	cur, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, row := range compareRows(old, cur, spec) {
		fmt.Println(row)
	}
	return 0
}
