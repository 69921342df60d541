package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/volren"
)

// testConfig is a small, fast study configuration.
func testConfig() *harness.Config {
	return &harness.Config{
		Sizes: []int{16}, PhaseSize: 16, MaxSimSize: 16, SimTime: 0.05,
		Images: 8, ImageSize: 32,
		Particles: 64, ParticleSteps: 100,
	}
}

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Config == nil {
		opts.Config = testConfig()
	}
	if opts.CinemaDir == "" {
		opts.CinemaDir = t.TempDir()
	}
	s := New(opts)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

// TestRenderSingleFlightBuild floods the daemon with concurrent requests
// for the same (dataset, transfer function) key and asserts the derived
// structure was built exactly once: one miss for the dataset, one for
// the renderer, everything else hits or joins the in-flight build.
func TestRenderSingleFlightBuild(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 12
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := get(t, ts, "/render?alg=volren&frame=2")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	st := s.Cache().Stats()
	// Exactly two builds ran: dataset/16 and volren/16/tr0.
	if st.Misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (one dataset build, one renderer build); stats %+v", st.Misses, st)
	}
	if st.Hits+st.Waits != clients-1 {
		t.Errorf("hits+waits = %d, want %d; stats %+v", st.Hits+st.Waits, clients-1, st)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d frame differs from client 0", i)
		}
	}
}

// TestRenderWarmBitIdentical renders one frame cold, again warm, and a
// third time through the per-call build path outside the daemon, and
// requires all three PNGs byte-identical — the cache must change cost,
// never pixels.
func TestRenderWarmBitIdentical(t *testing.T) {
	cfg := testConfig()
	s := testServer(t, Options{Config: cfg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const path = "/render?alg=volren&frame=3"
	respCold, cold := get(t, ts, path)
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", respCold.StatusCode, cold)
	}
	if v := respCold.Header.Get("X-Serve-Cache"); v != "miss" {
		t.Errorf("cold X-Serve-Cache = %q, want miss", v)
	}
	respWarm, warm := get(t, ts, path)
	if respWarm.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d", respWarm.StatusCode)
	}
	if v := respWarm.Header.Get("X-Serve-Cache"); v != "hit" {
		t.Errorf("warm X-Serve-Cache = %q, want hit", v)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm frame differs from cold frame")
	}

	// Per-call build path (what a filter run would do), same parameters.
	g, err := cfg.Dataset(16)
	if err != nil {
		t.Fatal(err)
	}
	field := g.PointField("energy")
	if field == nil {
		if field, err = g.CellToPoint("energy"); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := mesh.FieldRange(field)
	tf := render.TransferFunction{
		Norm:         render.Normalizer{Lo: lo, Hi: hi},
		OpacityScale: 0.25,
	}
	az := 2 * 3.14159265358979323846 * 3 / 8
	cam := render.OrbitCamera(g.Bounds(), az, 0.35, 2.0)
	ex := viz.NewExec(cfg.Pool)
	im := volren.RenderImage(g, field, tf, cam, cfg.ImageSize, cfg.ImageSize, ex)
	var buf bytes.Buffer
	if err := im.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, buf.Bytes()) {
		t.Fatal("served frame differs from per-call build")
	}
}

// TestOverloadReturns429 exhausts the budget with a held grant, fills
// the bounded queue, and asserts the next request is refused with 429 +
// Retry-After instead of deadlocking; releasing the grant must then
// drain the parked request to completion.
func TestOverloadReturns429(t *testing.T) {
	s := testServer(t, Options{BudgetWatts: 60, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the cache so the parked request completes quickly once granted.
	if resp, body := get(t, ts, "/render?alg=volren"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, body)
	}

	// Hold the whole budget (sensitive demand above budget clamps to it).
	grant, _, err := s.Admission().Admit(context.Background(), core.PowerSensitive, 1e9)
	if err != nil {
		t.Fatal(err)
	}

	// Park one request in the queue (volren is sensitive: charged its
	// demand, which cannot fit while the grant is held).
	parked := make(chan error, 1)
	go func() {
		resp, body := get(t, ts, "/render?alg=volren")
		if resp.StatusCode != http.StatusOK {
			parked <- fmt.Errorf("parked request: status %d: %s", resp.StatusCode, body)
			return
		}
		parked <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked in admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next sensitive request must be refused.
	resp, body := get(t, ts, "/render?alg=volren")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	grant.Release()
	select {
	case err := <-parked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parked request never completed after grant release: admission deadlock")
	}
	if st := s.Admission().Stats(); st.Rejected == 0 {
		t.Errorf("admission stats did not count the rejection: %+v", st)
	}
}

// TestCinemaSegments renders two orbit segments and checks the frames
// land on disk and the manifest is written at Close with every frame.
func TestCinemaSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s := New(Options{Config: cfg, CinemaDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first cinemaResponse
	resp, body := get(t, ts, "/cinema?alg=raytrace&from=0&count=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cinema: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatalf("cinema response: %v", err)
	}
	if len(first.Frames) != 3 {
		t.Fatalf("frames = %v, want 3", first.Frames)
	}
	resp, body = get(t, ts, "/cinema?alg=raytrace&from=3&count=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cinema segment 2: status %d: %s", resp.StatusCode, body)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(first.Dir, "index.json"))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var idx struct {
		Entries []struct {
			File string `json:"file"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != 5 {
		t.Fatalf("manifest entries = %d, want 5", len(idx.Entries))
	}
	for _, e := range idx.Entries {
		if _, err := os.Stat(filepath.Join(first.Dir, e.File)); err != nil {
			t.Errorf("frame missing: %v", err)
		}
	}
}

// TestSweepEndpoint runs one sweep cell and sanity-checks the cap table
// and classification; a second request must hit the cache.
func TestSweepEndpoint(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/sweep?alg=Contour&size=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Name != "Contour" || sw.Size != 16 {
		t.Errorf("sweep cell = %s/%d, want Contour/16", sw.Name, sw.Size)
	}
	if len(sw.Caps) == 0 || sw.DemandWatts <= 0 {
		t.Errorf("sweep missing cap rows or demand: %+v", sw)
	}
	if sw.Class == "" {
		t.Error("sweep missing classification")
	}

	before := s.Cache().Stats().Misses
	resp, _ = get(t, ts, "/sweep?alg=Contour&size=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep warm: status %d", resp.StatusCode)
	}
	if after := s.Cache().Stats().Misses; after != before {
		t.Errorf("warm sweep rebuilt the cell: misses %d -> %d", before, after)
	}
}

// TestStatsEndpoint checks the counters surface: after one render the
// admission and cache snapshots count it, and /metrics reports the
// same values.
func TestStatsEndpoint(t *testing.T) {
	s := testServer(t, Options{BudgetWatts: 120})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := get(t, ts, "/render?alg=raytrace"); resp.StatusCode != http.StatusOK {
		t.Fatalf("render: status %d: %s", resp.StatusCode, body)
	}
	adm, cache := s.Admission().Stats(), s.Cache().Stats()
	if adm.Admitted < 1 || cache.Misses < 1 {
		t.Errorf("stats did not count the request: admission %+v, cache %+v", adm, cache)
	}
	if adm.BudgetWatts != 120 {
		t.Errorf("budget = %v, want 120", adm.BudgetWatts)
	}
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for series, want := range map[string]float64{
		`vizpower_serve_requests_total{handler="render"}`: 1,
		"vizpower_admission_admitted_total":               float64(adm.Admitted),
		"vizpower_admission_budget_watts":                 120,
		"vizpower_cache_misses_total":                     float64(cache.Misses),
	} {
		if got := sampleValue(t, text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	// The paper's mixed-case spelling names the same algorithm, so it
	// hits the scene the lowercase request built.
	resp, body = get(t, ts, "/render?alg=Ray%20Tracing")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed-case alg: status %d: %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-Serve-Cache"); v != "hit" {
		t.Errorf("mixed-case alg X-Serve-Cache = %q, want hit", v)
	}
}

// TestBadRequests exercises parameter validation.
func TestBadRequests(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/render?alg=nosuch",
		"/render?size=100000",
		"/render?frame=-1",
		"/render?transparent=2",
		"/sweep?alg=nosuch",
		"/cinema?count=0",
	} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestSeedClassDemandLadder(t *testing.T) {
	s := testServer(t, Options{})
	// Rung 3: nothing known — a never-seen workload charges spec TDP.
	if got := s.demandWatts("Volume Rendering", 16); got != s.spec.TDPWatts {
		t.Fatalf("cold estimate %.1f W, want TDP %.1f W", got, s.spec.TDPWatts)
	}
	// Rung 2: a governor calibration upgrades the whole class.
	s.SeedClassDemand(map[core.Class]float64{
		core.PowerSensitive:   80,
		core.PowerOpportunity: 58,
		core.Class(99):        -5, // ignored
	})
	if got := s.demandWatts("Volume Rendering", 16); got != 80 {
		t.Errorf("sensitive-class estimate %.1f W, want the seeded 80 W", got)
	}
	if got := s.demandWatts("Contour", 16); got != 58 {
		t.Errorf("opportunity-class estimate %.1f W, want the seeded 58 W", got)
	}
	// Rung 1: a per-workload measurement beats the class estimate.
	s.estimates.Store(estimateKey("Volume Rendering", 16), 71.5)
	if got := s.demandWatts("Volume Rendering", 16); got != 71.5 {
		t.Errorf("measured estimate %.1f W, want 71.5 W", got)
	}
	// Other sizes of the class still use the class rung.
	if got := s.demandWatts("Volume Rendering", 32); got != 80 {
		t.Errorf("unmeasured size fell off the class rung: %.1f W", got)
	}
	// The seeded calibration is visible on /metrics.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := get(t, ts, "/metrics")
	for class, want := range map[string]float64{"power sensitive": 80, "power opportunity": 58} {
		series := `vizpower_admission_class_demand_watts{class="` + class + `"}`
		if got := sampleValue(t, string(body), series); got != want {
			t.Errorf("%s = %v, want the seeded %v W", series, got, want)
		}
	}
}
