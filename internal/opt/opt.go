// Package opt holds the cost-based structural optimizer's statistics and
// cost model. The paper's rewriter (§5.1) is purely rule-based; this package
// adds what it lacks: per-schema-node statistics (node counts come free from
// the block headers; ANALYZE collects equi-depth value histograms, distinct
// counts and average lengths on top), selectivity estimation for comparison
// predicates, and a cost model over the physical alternatives the executor
// already implements — value-index probe, schema-level structural scan,
// parallel fan-out, and naive chain navigation. The package is pure (no
// engine imports), so both core (catalog persistence) and query (planning)
// can use it without cycles.
package opt

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// HistogramBuckets is the number of equi-depth buckets per value column.
// Equi-depth (each bucket holds the same number of values) keeps estimation
// error bounded under skew, which equi-width histograms do not.
const HistogramBuckets = 32

// Default selectivities used when a column has no (or stale) statistics —
// the classic System R constants.
const (
	DefaultEqSel    = 0.10
	DefaultRangeSel = 1.0 / 3.0
)

// Staleness: stats are considered stale once the updates applied since
// ANALYZE could have churned a meaningful fraction of the analyzed nodes.
// The floor keeps tiny documents from flapping stale after a handful of
// updates.
const (
	stalenessFactor = 5
	stalenessFloor  = 64
)

// ColStats describes the value distribution of one column: the string
// values reachable from a schema node (an attribute's value, or the text
// under an element). Bounds hold B+1 equi-depth fences (min, B-1 inner
// bounds, max); each of the B buckets holds Rows/B values. A column whose
// every value parses as a number gets a numeric histogram (order-preserving
// under numeric comparison); otherwise a lexicographic string histogram.
type ColStats struct {
	Rows      uint64
	Distinct  uint64
	AvgLen    float64
	Numeric   bool
	NumBounds []float64
	StrBounds []string
}

// DocStats is one document's statistics snapshot, taken by ANALYZE and
// persisted through the catalog meta file. Cols is keyed by schema-node ID
// (attribute and text nodes — the value-bearing kinds). The snapshot is
// immutable after construction; staleness is judged against the document's
// running update counter.
type DocStats struct {
	AnalyzedNodes uint64 // total document nodes at ANALYZE time
	AvgChain      float64
	UpdateBase    uint64 // Activity.Updates at ANALYZE time
	Sampled       bool   // histograms built from reservoir samples, not full scans
	Cols          map[uint32]*ColStats
}

// Activity is a document's live access/update counters, maintained by the
// engine outside any statistics snapshot: Updates counts committed update
// transactions touching the document (staleness input), Accesses counts
// statements that resolved the document (residency-advisor input).
type Activity struct {
	Updates  atomic.Uint64
	Accesses atomic.Uint64
}

// Stale reports whether the snapshot no longer reflects the document, given
// the document's current committed-update count.
func (s *DocStats) Stale(updates uint64) bool {
	if s == nil {
		return true
	}
	// Activity counters are not persisted: after a restart Updates counts
	// from zero again, below the base of a snapshot taken before it, and
	// then is itself the number of updates since.
	d := updates
	if updates >= s.UpdateBase {
		d = updates - s.UpdateBase
	}
	return d*stalenessFactor > s.AnalyzedNodes+stalenessFloor
}

// Col returns the column stats for a schema node (nil when not collected).
func (s *DocStats) Col(id uint32) *ColStats {
	if s == nil {
		return nil
	}
	return s.Cols[id]
}

// BuildCol computes column statistics from the column's values (the full
// value set or a sample — the caller decides). Order of the input does not
// matter; the histogram sorts internally.
func BuildCol(values []string) *ColStats {
	c := &ColStats{Rows: uint64(len(values))}
	if len(values) == 0 {
		return c
	}
	distinct := make(map[string]struct{}, len(values))
	var totalLen int
	numeric := true
	nums := make([]float64, 0, len(values))
	for _, v := range values {
		distinct[v] = struct{}{}
		totalLen += len(v)
		if numeric {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				numeric = false
			} else {
				nums = append(nums, f)
			}
		}
	}
	c.Distinct = uint64(len(distinct))
	c.AvgLen = float64(totalLen) / float64(len(values))
	c.Numeric = numeric
	if numeric {
		sort.Float64s(nums)
		c.NumBounds = equiDepthF(nums)
	} else {
		ss := append([]string(nil), values...)
		sort.Strings(ss)
		c.StrBounds = equiDepthS(ss)
	}
	return c
}

// BuildColSampled computes column statistics from a uniform sample of a
// column holding totalRows values. The histogram fences come straight from
// the sample (equi-depth fences are sampling-stable), Rows is corrected to
// the true count, and Distinct is extrapolated with the Duj1 estimator
// (d / (1 - (f1/n)(1 - n/N)), f1 = sample values seen exactly once) — linear
// scaling would wrongly inflate low-cardinality columns, and the raw sample
// distinct would wrongly deflate unique ones.
func BuildColSampled(values []string, totalRows uint64) *ColStats {
	c := BuildCol(values)
	n := uint64(len(values))
	if n == 0 || totalRows <= n {
		return c
	}
	counts := make(map[string]int, len(values))
	for _, v := range values {
		counts[v]++
	}
	f1 := 0
	for _, k := range counts {
		if k == 1 {
			f1++
		}
	}
	d, nf, tf := float64(len(counts)), float64(n), float64(totalRows)
	est := d
	if denom := 1 - (float64(f1)/nf)*(1-nf/tf); denom > 0 {
		est = d / denom
	}
	if est > tf {
		est = tf
	}
	if est < d {
		est = d
	}
	c.Rows = totalRows
	c.Distinct = uint64(est + 0.5)
	return c
}

// equiDepthF picks B+1 fences out of a sorted slice: min, the values at the
// B-1 interior depth boundaries, max. Fewer values than buckets degrade
// gracefully (duplicate fences; estimation still works).
func equiDepthF(sorted []float64) []float64 {
	b := HistogramBuckets
	out := make([]float64, b+1)
	n := len(sorted)
	for i := 0; i <= b; i++ {
		idx := i * (n - 1) / b
		out[i] = sorted[idx]
	}
	return out
}

func equiDepthS(sorted []string) []string {
	b := HistogramBuckets
	out := make([]string, b+1)
	n := len(sorted)
	for i := 0; i <= b; i++ {
		idx := i * (n - 1) / b
		out[i] = sorted[idx]
	}
	return out
}

// EqSelectivity estimates the fraction of rows equal to one value: 1/NDV
// under the uniform-frequency assumption, the default constant without
// stats.
func (c *ColStats) EqSelectivity() float64 {
	if c == nil || c.Rows == 0 || c.Distinct == 0 {
		return DefaultEqSel
	}
	return 1 / float64(c.Distinct)
}

// fracNum estimates the fraction of rows below v (strictly when le is
// false, ≤ v when le is true) by counting equi-depth buckets: buckets
// entirely below contribute fully, the bucket containing v contributes a
// linear interpolation. Counting whole buckets (rather than locating one
// fence) keeps heavy values honest: a value occupying k buckets weighs
// k/B, which is how equi-depth histograms survive skew.
func (c *ColStats) fracNum(v float64, le bool) float64 {
	b := len(c.NumBounds) - 1
	if v < c.NumBounds[0] || (!le && v == c.NumBounds[0]) {
		return 0
	}
	if v > c.NumBounds[b] || (le && v == c.NumBounds[b]) {
		return 1
	}
	full := 0.0
	for i := 0; i < b; i++ {
		lo, hi := c.NumBounds[i], c.NumBounds[i+1]
		below := hi < v || (le && hi == v)
		if below {
			full++
			continue
		}
		// First bucket not entirely below v: take its partial share.
		if lo < v && hi > lo {
			full += (v - lo) / (hi - lo)
		}
		break
	}
	return full / float64(b)
}

// fracStr is fracNum for string histograms; strings have no metric, so the
// containing bucket contributes half.
func (c *ColStats) fracStr(v string, le bool) float64 {
	b := len(c.StrBounds) - 1
	if v < c.StrBounds[0] || (!le && v == c.StrBounds[0]) {
		return 0
	}
	if v > c.StrBounds[b] || (le && v == c.StrBounds[b]) {
		return 1
	}
	full := 0.0
	for i := 0; i < b; i++ {
		lo, hi := c.StrBounds[i], c.StrBounds[i+1]
		below := hi < v || (le && hi == v)
		if below {
			full++
			continue
		}
		if lo < v {
			full += 0.5
		}
		break
	}
	return full / float64(b)
}

// CmpOp is the comparison-operator vocabulary the estimator understands.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota + 1
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Selectivity estimates the fraction of rows satisfying `column op literal`.
// isString says which literal field carries the value. A literal typed
// against the histogram's other flavour falls back to the defaults.
func (c *ColStats) Selectivity(op CmpOp, isString bool, s string, f float64) float64 {
	if op == CmpEq {
		if c == nil || c.Rows == 0 {
			return DefaultEqSel
		}
		// 1/NDV assumes uniform frequencies; the histogram corrects for
		// skew: the fraction of rows equal to v is frac(≤v) − frac(<v),
		// and a heavy value occupying k buckets weighs k/B regardless of
		// how few distinct values the column has.
		sel := c.EqSelectivity()
		switch {
		case c.Numeric && !isString && len(c.NumBounds) > 1:
			if eq := c.fracNum(f, true) - c.fracNum(f, false); eq > sel {
				sel = eq
			}
		case !c.Numeric && isString && len(c.StrBounds) > 1:
			if eq := c.fracStr(s, true) - c.fracStr(s, false); eq > sel {
				sel = eq
			}
		}
		return clamp01(sel)
	}
	if c == nil || c.Rows == 0 {
		return DefaultRangeSel
	}
	var lt, le float64
	switch {
	case c.Numeric && !isString && len(c.NumBounds) > 1:
		lt, le = c.fracNum(f, false), c.fracNum(f, true)
	case !c.Numeric && isString && len(c.StrBounds) > 1:
		lt, le = c.fracStr(s, false), c.fracStr(s, true)
	default:
		return DefaultRangeSel
	}
	switch op {
	case CmpLt:
		return clamp01(lt)
	case CmpLe:
		return clamp01(le)
	case CmpGt:
		return clamp01(1 - le)
	case CmpGe:
		return clamp01(1 - lt)
	}
	return DefaultRangeSel
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
