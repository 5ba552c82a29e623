package opt

import (
	"fmt"
	"math"
	"testing"
)

func TestBuildColEmpty(t *testing.T) {
	c := BuildCol(nil)
	if c.Rows != 0 || c.Distinct != 0 {
		t.Fatalf("empty column: %+v", c)
	}
	// No stats → defaults, never a panic.
	if got := c.EqSelectivity(); got != DefaultEqSel {
		t.Fatalf("empty eq selectivity = %v", got)
	}
	if got := c.Selectivity(CmpLt, false, "", 5); got != DefaultRangeSel {
		t.Fatalf("empty range selectivity = %v", got)
	}
}

func TestBuildColNil(t *testing.T) {
	var c *ColStats
	if got := c.EqSelectivity(); got != DefaultEqSel {
		t.Fatalf("nil eq selectivity = %v", got)
	}
	if got := c.Selectivity(CmpGt, true, "x", 0); got != DefaultRangeSel {
		t.Fatalf("nil range selectivity = %v", got)
	}
}

func TestBuildColSingleValue(t *testing.T) {
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = "42"
	}
	c := BuildCol(vals)
	if c.Rows != 100 || c.Distinct != 1 || !c.Numeric {
		t.Fatalf("single-value column: %+v", c)
	}
	if got := c.EqSelectivity(); got != 1 {
		t.Fatalf("eq selectivity of a constant column = %v, want 1", got)
	}
	// Everything is 42: nothing below it, nothing above it.
	if got := c.Selectivity(CmpLt, false, "", 42); got != 0 {
		t.Fatalf("< 42 selectivity = %v, want 0", got)
	}
	if got := c.Selectivity(CmpGt, false, "", 42); got != 0 {
		t.Fatalf("> 42 selectivity = %v, want 0", got)
	}
	if got := c.Selectivity(CmpGe, false, "", 100); got != 0 {
		t.Fatalf(">= 100 selectivity = %v, want 0", got)
	}
	if got := c.Selectivity(CmpLe, false, "", 41); got != 0 {
		t.Fatalf("<= 41 selectivity = %v, want 0", got)
	}
}

func TestUniformNumericHistogram(t *testing.T) {
	vals := make([]string, 1000)
	for i := range vals {
		vals[i] = fmt.Sprint(i)
	}
	c := BuildCol(vals)
	if !c.Numeric || len(c.NumBounds) != HistogramBuckets+1 {
		t.Fatalf("numeric histogram: numeric=%v bounds=%d", c.Numeric, len(c.NumBounds))
	}
	// < 500 over uniform 0..999 ≈ 0.5.
	got := c.Selectivity(CmpLt, false, "", 500)
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("< 500 selectivity = %v, want ≈0.5", got)
	}
	// > 900 ≈ 0.1.
	got = c.Selectivity(CmpGt, false, "", 900)
	if math.Abs(got-0.1) > 0.05 {
		t.Fatalf("> 900 selectivity = %v, want ≈0.1", got)
	}
	// Out-of-range probes clamp.
	if got := c.Selectivity(CmpLt, false, "", -5); got != 0 {
		t.Fatalf("< -5 = %v, want 0", got)
	}
	if got := c.Selectivity(CmpGe, false, "", 2000); got != 0 {
		t.Fatalf(">= 2000 = %v, want 0", got)
	}
}

func TestSkewedHistogram(t *testing.T) {
	// 90% of rows are 1, the rest spread 2..101: equi-depth keeps the
	// heavy value from hiding the tail.
	var vals []string
	for i := 0; i < 900; i++ {
		vals = append(vals, "1")
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, fmt.Sprint(2+i))
	}
	c := BuildCol(vals)
	// > 1 must estimate close to the true 10%, not ~50%.
	got := c.Selectivity(CmpGt, false, "", 1)
	if got > 0.2 {
		t.Fatalf("> 1 on skewed data = %v, want ≲0.1", got)
	}
	// <= 1 captures the heavy value.
	got = c.Selectivity(CmpLe, false, "", 1)
	if got < 0.8 {
		t.Fatalf("<= 1 on skewed data = %v, want ≳0.9", got)
	}
}

func TestStringHistogram(t *testing.T) {
	var vals []string
	for i := 0; i < 26; i++ {
		for j := 0; j < 10; j++ {
			vals = append(vals, string(rune('a'+i))+"x")
		}
	}
	c := BuildCol(vals)
	if c.Numeric {
		t.Fatal("string column classified numeric")
	}
	got := c.Selectivity(CmpLt, true, "m", 0)
	if math.Abs(got-12.0/26) > 0.1 {
		t.Fatalf(`< "m" selectivity = %v, want ≈0.46`, got)
	}
	// Numeric literal against a string histogram: no sound estimate → default.
	if got := c.Selectivity(CmpLt, false, "", 5); got != DefaultRangeSel {
		t.Fatalf("type-mismatched selectivity = %v, want default", got)
	}
}

func TestMixedColumnFallsBackToString(t *testing.T) {
	c := BuildCol([]string{"1", "2", "abc", "3"})
	if c.Numeric {
		t.Fatal("mixed column classified numeric")
	}
	if c.Distinct != 4 {
		t.Fatalf("distinct = %d", c.Distinct)
	}
}

func TestStaleness(t *testing.T) {
	var s *DocStats
	if !s.Stale(0) {
		t.Fatal("nil stats must read stale")
	}
	st := &DocStats{AnalyzedNodes: 1000, UpdateBase: 10}
	if st.Stale(10) {
		t.Fatal("fresh stats read stale")
	}
	if st.Stale(50) {
		t.Fatal("40 updates over 1000 nodes read stale")
	}
	if !st.Stale(10 + 1000) {
		t.Fatal("1000 updates over 1000 nodes not stale")
	}
	// A counter below the base restarted with the process: it is the number
	// of updates since, not a wrapped difference.
	if st.Stale(3) {
		t.Fatal("restarted update counter read stale")
	}
	restarted := &DocStats{AnalyzedNodes: 4, UpdateBase: 500}
	if !restarted.Stale(100) {
		t.Fatal("100 updates after a restart on a 4-node doc not stale")
	}
	// Tiny documents: the floor absorbs a handful of updates.
	tiny := &DocStats{AnalyzedNodes: 4}
	if tiny.Stale(10) {
		t.Fatal("10 updates under the floor read stale")
	}
	if !tiny.Stale(100) {
		t.Fatal("100 updates on a 4-node doc not stale")
	}
}

func TestCostOrderings(t *testing.T) {
	// Selective probe beats the scan; unselective probe loses to it.
	scan := ScanCost(50, 3200, 1)
	if ProbeCost(3) >= scan {
		t.Fatalf("selective probe %v not under scan %v", ProbeCost(3), scan)
	}
	if ProbeCost(3000) <= scan {
		t.Fatalf("unselective probe %v not over scan %v", ProbeCost(3000), scan)
	}
	// Chain navigation is the worst plan for bulk scans.
	if ChainCost(50, 3200) <= scan {
		t.Fatal("chain scan undercut the structural scan")
	}
	// Parallel wins on big scans, not on small ones.
	if w, c, ok := BestWorkers(ScanCost(50, 3200, 0), 8); !ok || w < 2 || c >= ScanCost(50, 3200, 0) {
		t.Fatalf("big scan: workers=%d cost=%v ok=%v", w, c, ok)
	}
	if _, _, ok := BestWorkers(ScanCost(1, 20, 0), 8); ok {
		t.Fatal("tiny scan should not fan out")
	}
}

func TestParallelAltName(t *testing.T) {
	if ParallelAltName(4) != "parallel-scan(w=4)" {
		t.Fatalf("alt name: %s", ParallelAltName(4))
	}
}
