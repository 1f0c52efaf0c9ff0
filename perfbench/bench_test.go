package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"filaments/internal/apps/jacobi"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := summarize(v)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("summary of 1..10 = %+v, want q1 2.75, median 5.5, q3 8.25", s)
	}
	if got := summarize([]float64{7}); got.Median != 7 || got.Q1 != 7 || got.Q3 != 7 {
		t.Fatalf("single sample summary = %+v", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if s := tailSupport(90, 84); !strings.Contains(s, "p75") {
		t.Errorf("tailSupport(90, 84) = %q, want the supported p75 named", s)
	}
}

func TestCheckGridRejectsOneChangedCell(t *testing.T) {
	want := jacobi.Reference(16, 10)
	got := make([][]float64, len(want))
	for i := range want {
		got[i] = append([]float64(nil), want[i]...)
	}
	if err := checkGrid(got, want); err != nil {
		t.Fatalf("identical grids rejected: %v", err)
	}
	got[7][9] = math.Nextafter(got[7][9], math.Inf(1))
	err := checkGrid(got, want)
	if err == nil || !strings.Contains(err.Error(), "(7,9)") {
		t.Fatalf("grid with cell (7,9) one ulp off: err = %v, want it named", err)
	}
	if err := checkGrid(got[:15], want); err == nil {
		t.Fatal("grid missing a row accepted")
	}
}

func TestCheckArea(t *testing.T) {
	const want = 83.25
	if err := checkArea(want*(1+1e-12), want); err != nil {
		t.Fatalf("area within rounding rejected: %v", err)
	}
	if err := checkArea(want*(1+1e-6), want); err == nil {
		t.Fatal("area off by 1e-6 relative accepted")
	}
	if err := checkArea(want+1e-6, want); err == nil {
		t.Fatal("area off by 1e-6 absolute accepted")
	}
	if err := checkArea(math.NaN(), want); err == nil {
		t.Fatal("NaN area accepted")
	}
}

func TestCheckBarrierAndQuiet(t *testing.T) {
	if err := checkBarrier([]float64{10, 10, 10, 10}, []int64{5, 5, 5, 5}, 4, 5); err != nil {
		t.Fatalf("correct storm rejected: %v", err)
	}
	if err := checkBarrier([]float64{10, 10, 9, 10}, []int64{5, 5, 5, 5}, 4, 5); err == nil {
		t.Fatal("wrong Sum accepted")
	}
	if err := checkBarrier([]float64{10, 10, 10, 10}, []int64{5, 4, 5, 5}, 4, 5); err == nil {
		t.Fatal("missing barrier accepted")
	}
	if checkQuiet(0) != nil || checkQuiet(2) == nil {
		t.Fatal("checkQuiet must accept 0 and reject outstanding requests")
	}
}

// A corrupted reference makes every trial's real output mismatch: the
// run must count the failures and exit non-zero.
func TestCorruptedOutputFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real 4-node UDP cluster")
	}
	want := jacobi.Reference(jacobiN, jacobiIters)
	want[jacobiN/2][jacobiN/2] += 1e-9
	w := jacobiWorkload(want)
	m := measure(w, 0.01, nil)
	if m.failed == 0 || m.failed != m.attempted {
		t.Fatalf("corrupted output: %d of %d operations failed, want all", m.failed, m.attempted)
	}
	if code := execute(w, 1, 0.01, 0, ""); code == 0 {
		t.Fatal("run with corrupted output exited 0")
	}
}

func TestJudge(t *testing.T) {
	runs := func(vs ...float64) side { return side{values: vs} }
	old := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		cur    side
		better string
		want   string
	}{
		{"inside the bound", runs(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), "lower", vUnchanged},
		{"slower beyond the bound", runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "lower", vWorse},
		{"faster beyond the bound", runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "lower", vBetter},
		{"higher is better", runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "higher", vWorse},
		{"spread wider than the bound", runs(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), "lower", vUnresolved},
		{"wide but every run better", runs(50, 90, 60, 85, 70, 55, 88, 65, 75, 80), "lower", vBetter},
	} {
		if got, _ := judge(old, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// One run per side: its own quartiles give the spread.
	one := side{values: []float64{100}, within: [2]float64{70, 130}}
	if got, _ := judge(one, one, "lower", 0.1); got != vUnresolved {
		t.Errorf("single wide run: verdict %s, want %s", got, vUnresolved)
	}
}

func TestCompareRows(t *testing.T) {
	oldFile := `{"workload":"barrier-storm","trace":0,"metrics":{"run_s":{"value":0.30,"q1":0.29,"q3":0.31,"n":40,"unit":"s"}}}
{"workload":"barrier-storm","trace":0,"metrics":{"run_s":{"value":0.31,"q1":0.30,"q3":0.32,"n":40,"unit":"s"}}}
{"workload":"barrier-storm","trace":0,"metrics":{"run_s":{"value":0.30,"q1":0.29,"q3":0.31,"n":40,"unit":"s"}}}
{"workload":"barrier-storm","trace":1,"metrics":{"reduce.barrier_us":{"value":70,"unit":"us"}}}`
	newFile := `{"workload":"barrier-storm","trace":0,"metrics":{"run_s":{"value":0.40,"q1":0.39,"q3":0.41,"n":40,"unit":"s"}}}
{"workload":"barrier-storm","trace":0,"metrics":{"run_s":{"value":0.41,"q1":0.40,"q3":0.42,"n":40,"unit":"s"}}}
{"workload":"barrier-storm","trace":0,"metrics":{"run_s":{"value":0.40,"q1":0.39,"q3":0.41,"n":40,"unit":"s"}}}`
	old, err := parseRecords(strings.NewReader(oldFile), "old")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parseRecords(strings.NewReader(newFile), "new")
	if err != nil {
		t.Fatal(err)
	}
	spec := benchSpec{EndToEnd: []metricSpec{
		{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.1},
	}}
	rows := compareRows(old, cur, spec)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want one per workload: %q", len(rows), rows)
	}
	for _, want := range []string{"barrier-storm", "run_s WORSE", "cpu_s: missing"} {
		if !strings.Contains(rows[0], want) {
			t.Errorf("row %q lacks %q", rows[0], want)
		}
	}
	if rows := compareRows(old, old, spec); !strings.Contains(rows[0], "run_s unchanged") {
		t.Errorf("same records compared: %q, want unchanged", rows[0])
	}
	if _, err := parseRecords(strings.NewReader("{not json"), "bad"); err == nil {
		t.Error("malformed record file accepted")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	tr := newTracer()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.spans = []span{
		{ID: 1, Name: "batch", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "job", Start: ms(10), End: ms(60)},
		{ID: 3, Parent: 1, Name: "job", Start: ms(40), End: ms(90)},
		{ID: 4, Parent: 2, Name: "http.wait", Start: ms(20), End: ms(50)},
	}
	got := make(map[string]selfTime)
	for _, st := range tr.selfTimes() {
		got[st.Name] = st
	}
	// batch: 100 - union(10..60, 40..90) = 20; jobs: 50-30 + 50 = 70.
	if got["batch"].Self != ms(20) || got["job"].Self != ms(70) || got["job"].Count != 2 || got["http.wait"].Self != ms(30) {
		t.Fatalf("self times = %+v", got)
	}
	var b strings.Builder
	if err := tr.writeChrome(&b); err != nil || !strings.Contains(b.String(), `"traceEvents"`) {
		t.Fatalf("chrome trace: %v %q", err, b.String())
	}
}
