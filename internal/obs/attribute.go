package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// StageJoules is one row of an energy attribution: a pipeline stage,
// its span self time, and the joules charged to it.
type StageJoules struct {
	Stage   string
	Count   int64
	SelfSec float64
	Joules  float64
	Share   float64 // Joules / total, in [0,1]
}

// Attribute answers "where did the joules go?" for one measured
// window: it distributes totalJ, the package energy a power meter read
// over the window (Σ perfctr.Sample.EnergyJ, or one governed phase's
// EnergyJ), across the window's stages in proportion to span self
// time. The meter measures the whole package — it cannot see stages.
// Self time partitions the traced wall clock (each nanosecond belongs
// to exactly one stage, per telemetry.Summarize), so proportional
// distribution is the unique assignment consistent with a
// constant-power-within-stage model, and the rows sum to totalJ by
// construction.
//
// Rows come back sorted by joules descending. Either input may be
// empty: zero joules → zero-joule rows (self time still reported); no
// stages → a single "(untraced)" row carrying the whole total.
func Attribute(stats []telemetry.StageStat, totalJ float64) []StageJoules {
	var totalSelf float64
	for _, st := range stats {
		totalSelf += st.SelfSec()
	}
	if len(stats) == 0 {
		if totalJ == 0 {
			return nil
		}
		return []StageJoules{{Stage: "(untraced)", Joules: totalJ, Share: 1}}
	}
	rows := make([]StageJoules, 0, len(stats))
	for _, st := range stats {
		r := StageJoules{Stage: st.Name, Count: st.Count, SelfSec: st.SelfSec()}
		if totalSelf > 0 {
			r.Joules = totalJ * (st.SelfSec() / totalSelf)
			if totalJ > 0 {
				r.Share = r.Joules / totalJ
			}
		}
		rows = append(rows, r)
	}
	sortStageJoules(rows)
	return rows
}

// MergeAttribution folds additional rows (e.g. one governed phase's
// attribution) into acc by stage name, keeping the result sorted by
// joules descending. Used by the governor to build a whole-run table
// from per-phase joins, each of which is exact for its phase.
func MergeAttribution(acc, more []StageJoules) []StageJoules {
	byStage := make(map[string]int, len(acc))
	for i, r := range acc {
		byStage[r.Stage] = i
	}
	for _, r := range more {
		if i, ok := byStage[r.Stage]; ok {
			acc[i].Count += r.Count
			acc[i].SelfSec += r.SelfSec
			acc[i].Joules += r.Joules
		} else {
			byStage[r.Stage] = len(acc)
			acc = append(acc, r)
		}
	}
	var totalJ float64
	for _, r := range acc {
		totalJ += r.Joules
	}
	for i := range acc {
		if totalJ > 0 {
			acc[i].Share = acc[i].Joules / totalJ
		} else {
			acc[i].Share = 0
		}
	}
	sortStageJoules(acc)
	return acc
}

func sortStageJoules(rows []StageJoules) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Joules != rows[j].Joules {
			return rows[i].Joules > rows[j].Joules
		}
		return rows[i].Stage < rows[j].Stage
	})
}

// TotalJoules sums the attributed joules (the measured total, by the
// Attribute invariant).
func TotalJoules(rows []StageJoules) float64 {
	var t float64
	for _, r := range rows {
		t += r.Joules
	}
	return t
}

// WriteJoulesTable renders the "Where the joules went" table: one row
// per stage, joules descending, with a totals line.
func WriteJoulesTable(w io.Writer, rows []StageJoules) {
	fmt.Fprintf(w, "%-26s %10s %12s %12s %7s\n", "stage", "count", "self", "joules", "share")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	var totJ, totSelf float64
	var totCount int64
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10d %11.3fs %11.2fJ %6.1f%%\n",
			r.Stage, r.Count, r.SelfSec, r.Joules, r.Share*100)
		totJ += r.Joules
		totSelf += r.SelfSec
		totCount += r.Count
	}
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintf(w, "%-26s %10d %11.3fs %11.2fJ %6.1f%%\n", "total", totCount, totSelf, totJ, 100.0)
}
