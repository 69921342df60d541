package volren

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

// BenchmarkVolrenFrame renders one 128x128 orbit frame with the macrocell
// marcher (amortized acceleration state) and with the reference
// world-space sampler, at 32^3 and 64^3, with and without a transparency
// threshold. cells/s counts grid cells per rendered frame. Results are
// recorded in BENCH_PR3.json.
func BenchmarkVolrenFrame(b *testing.B) {
	for _, n := range []int{32, 64} {
		g := blobGrid(b, n)
		field := g.PointField("energy")
		lo, hi := mesh.FieldRange(field)
		for _, cfg := range []struct {
			name        string
			transparent float64
			reference   bool
		}{
			{"ref", 0, true},
			{"fast", 0, false},
			{"fast-skip", 0.35, false},
		} {
			b.Run(fmt.Sprintf("%s-%d", cfg.name, n), func(b *testing.B) {
				tf := render.TransferFunction{
					Norm:         render.Normalizer{Lo: lo, Hi: hi},
					OpacityScale: 0.25,
					Transparent:  cfg.transparent,
				}
				cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
				ex := viz.NewExec(par.Default())
				var r *Renderer
				if !cfg.reference {
					r = NewRenderer(g, field, tf, ex)
				}
				var im *render.Image
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cfg.reference {
						im = RenderSegmentsReference(im, g, field, tf, cam, 128, 128, ex)
						BlendBackground(im)
					} else {
						im = r.RenderImageInto(im, cam, 128, 128, ex)
					}
				}
				b.ReportMetric(float64(g.NumCells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			})
		}
	}
}
