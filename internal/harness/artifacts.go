package harness

import "sync"

// Artifact is one of the paper's tables or figures. Artifacts is the one
// list the per-artifact vizpower commands, `vizpower all`, and
// report.md's figure table are generated from.
type Artifact struct {
	// ID is the command name; a figure's files are ID.csv and ID.svg.
	ID string
	// File is the file `all` writes a table to.
	File string
	// Desc is a figure's one-line description in report.md.
	Desc string
	// Title heads a figure's SVG and its text form; YLabel is its y axis.
	Title, YLabel string
	// Text renders a table and Series builds a figure's curves from the
	// swept cells. fig1, the renderings, has neither (see RenderFig1).
	Text   func(*Cells) (string, error)
	Series func(*Cells) ([]Series, error)
}

// Artifacts lists the paper's tables and figures in the order `all`
// writes them.
var Artifacts = []Artifact{
	{ID: "table1", File: "table1.txt", Text: func(s *Cells) (string, error) {
		run, err := sweepOnce(s, "phase1", s.c.Phase1)
		if err != nil {
			return "", err
		}
		return Table1(run, s.c.Caps), nil
	}},
	{ID: "table2", File: "table2.txt", Text: over((*Cells).Phase2, Table2)},
	{ID: "table3", File: "table3.txt", Text: over((*Cells).Largest, Table3)},
	{ID: "classify", File: "classification.txt", Text: over((*Cells).Phase2,
		func(runs []*AlgoRun, _ []float64) string { return DemandTable(runs) })},
	{ID: "energy", File: "energy.txt", Text: over((*Cells).Phase2, EnergyTable)},
	{ID: "fig1", Desc: "renderings of the eight algorithms"},
	{ID: "fig2a", Desc: "effective frequency vs. cap", Title: "Figure 2a — Effective Frequency",
		YLabel: "Effective Frequency (GHz)", Series: over((*Cells).Phase2, Fig2a)},
	{ID: "fig2b", Desc: "IPC vs. cap", Title: "Figure 2b — Instructions Per Cycle",
		YLabel: "IPC", Series: over((*Cells).Phase2, Fig2b)},
	{ID: "fig2c", Desc: "LLC miss rate vs. cap", Title: "Figure 2c — LLC Miss Rate",
		YLabel: "Last Level Cache Miss Rate", Series: over((*Cells).Phase2, Fig2c)},
	{ID: "fig3", Desc: "elements/s, cell-centered algorithms", Title: "Figure 3 — Cell-Centered Throughput",
		YLabel: "Elements (M)/sec", Series: over((*Cells).Phase2, Fig3)},
	{ID: "fig4", Desc: "slice IPC by data-set size", Title: "Figure 4 — Slice IPC by Data Set Size",
		YLabel: "IPC", Series: ipcBySize("Slice")},
	{ID: "fig5", Desc: "volume rendering IPC by data-set size", Title: "Figure 5 — Volume Rendering IPC by Data Set Size",
		YLabel: "IPC", Series: ipcBySize("Volume Rendering")},
	{ID: "fig6", Desc: "particle advection IPC by data-set size", Title: "Figure 6 — Particle Advection IPC by Data Set Size",
		YLabel: "IPC", Series: ipcBySize("Particle Advection")},
}

// ArtifactByID returns the artifact named id, or nil.
func ArtifactByID(id string) *Artifact {
	for i := range Artifacts {
		if Artifacts[i].ID == id {
			return &Artifacts[i]
		}
	}
	return nil
}

// Cells sweeps each phase the artifacts read at most once. Seven
// artifacts read Phase 2; sharing one Cells across them keeps a failing
// cell from being retried and recorded once per artifact.
type Cells struct {
	c    *Config
	memo map[string]any // key -> func() (T, error) from sync.OnceValues
}

// NewCells returns a Cells that has swept nothing yet.
func NewCells(c *Config) *Cells { return &Cells{c: c, memo: make(map[string]any)} }

// Phase2 returns the Phase 2 runs: every algorithm at the phase size.
func (s *Cells) Phase2() ([]*AlgoRun, error) { return sweepOnce(s, "phase2", s.c.Phase2) }

// Largest returns Table III's runs: every algorithm at the largest size.
func (s *Cells) Largest() ([]*AlgoRun, error) {
	return sweepOnce(s, "largest", func() ([]*AlgoRun, error) {
		sizes := s.c.SortedSizes()
		return s.c.RunAll(sizes[len(sizes)-1])
	})
}

// sweepOnce runs sweep the first time key is read and replays its
// result on every later read.
func sweepOnce[T any](s *Cells, key string, sweep func() (T, error)) (T, error) {
	once, ok := s.memo[key].(func() (T, error))
	if !ok {
		once = sync.OnceValues(sweep)
		s.memo[key] = once
	}
	return once()
}

// over adapts a table or figure of one run set to an artifact builder.
func over[T any](runs func(*Cells) ([]*AlgoRun, error), f func([]*AlgoRun, []float64) T) func(*Cells) (T, error) {
	return func(s *Cells) (T, error) {
		rs, err := runs(s)
		if err != nil {
			var zero T
			return zero, err
		}
		return f(rs, s.c.Caps), nil
	}
}

// ipcBySize builds the Fig. 4–6 series of one algorithm.
func ipcBySize(name string) func(*Cells) ([]Series, error) {
	return func(s *Cells) ([]Series, error) {
		bySize, err := sweepOnce(s, "bysize/"+name, func() (map[int]*AlgoRun, error) { return s.c.RunsBySize(name) })
		if err != nil {
			return nil, err
		}
		return FigIPCBySize(bySize, s.c.SortedSizes(), s.c.Caps), nil
	}
}
