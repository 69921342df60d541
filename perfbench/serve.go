package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"image"
	_ "image/png" // registers the decoder the response check uses
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
)

const (
	serveSize    = 64
	serveImages  = 50 // orbit length
	serveImg     = 128
	serveBudget  = 130.0 // W
	serveClients = 2     // closed-loop clients, one connection each
	// listLen bounds each client's request list; a client that reaches
	// the end stops early and says so.
	listLen = 20000
)

// request is one generated /render request.
type request struct {
	alg         string
	frame       int
	transparent float64 // 0 leaves the daemon default
}

func (q request) url(base string) string {
	u := fmt.Sprintf("%s/render?alg=%s&size=%d&frame=%d&images=%d&width=%d&height=%d",
		base, q.alg, serveSize, q.frame, serveImages, serveImg, serveImg)
	if q.transparent != 0 {
		u += "&transparent=" + strconv.FormatFloat(q.transparent, 'g', -1, 64)
	}
	return u
}

func (q request) key() string { return fmt.Sprintf("%s/%d/%g", q.alg, q.frame, q.transparent) }

// requestLists generates every client's requests from the seed: half
// volren, half raytrace, uniform over the orbit frames; one volren
// request in eight carries a transparent value no earlier request
// used, so the daemon builds and caches a new structure for it.
func requestLists(seed int64) [serveClients][]request {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	var lists [serveClients][]request
	for i := 0; i < listLen; i++ {
		for c := range lists {
			q := request{alg: "raytrace", frame: rng.Intn(serveImages)}
			if rng.Intn(2) == 0 {
				q.alg = "volren"
				if rng.Intn(8) == 0 {
					k := rng.Intn(99999) + 1
					for seen[k] {
						k = rng.Intn(99999) + 1
					}
					seen[k] = true
					q.transparent = float64(k) / 1e5
				}
			}
			lists[c] = append(lists[c], q)
		}
	}
	return lists
}

// daemon is an in-process serve.Server on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	g      *mesh.UniformGrid
}

// startDaemon is the serve set-up: the 64^3 dataset, the daemon, and
// the first volren and raytrace requests, which build the derived
// structures. The volren request is sent twice, and the latencies of
// the two (the cold and the warm frame) are returned; their bodies must
// be identical.
func startDaemon(r *run, pool *par.Pool, tr *tracer) (d *daemon, coldMs, warmMs float64, err error) {
	op := tr.op()
	root := tr.begin("serve.setup", -1, op)
	defer tr.end(root)
	cfg := (&harness.Config{Pool: pool}).Defaults()
	id := tr.begin(fmt.Sprintf("harness.dataset.%d", serveSize), root, op)
	g, err := dataset(r, cfg, serveSize, tr, id, op)
	tr.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	d = &daemon{
		srv: serve.New(serve.Options{
			Config:      cfg,
			BudgetWatts: serveBudget,
			CinemaDir:   filepath.Join(r.outDir, "serve-cinema"),
		}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
		g: g,
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	var ms [3]float64
	var bodies [3][]byte
	for i, q := range []request{{alg: "volren"}, {alg: "volren"}, {alg: "raytrace"}} {
		id := tr.begin("serve.request", root, op)
		t0 := time.Now()
		status, _, body, err := d.get(q.url(d.base))
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(id)
		if err == nil {
			err = checkPNG(status, body)
		}
		if err == nil && i == 1 && !bytes.Equal(body, bodies[0]) {
			err = fmt.Errorf("warm frame differs from the cold one")
		}
		if err != nil {
			return nil, 0, 0, errors.Join(fmt.Errorf("set-up %s request: %w", q.alg, err), d.stop())
		}
		bodies[i] = body
	}
	return d, ms[0], ms[1], nil
}

// stop shuts the daemon down and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	d.client.CloseIdleConnections()
	return errors.Join(err, d.srv.Close())
}

func (d *daemon) get(url string) (int, http.Header, []byte, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// checkPNG accepts a 200 whose body is a PNG of the requested size.
func checkPNG(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.80s", status, body)
	}
	c, format, err := image.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if format != "png" || c.Width != serveImg || c.Height != serveImg {
		return fmt.Errorf("got a %dx%d %s, want a %dx%d png", c.Width, c.Height, format, serveImg, serveImg)
	}
	return nil
}

// serveStats accumulates one window across the client goroutines.
type serveStats struct {
	mu                sync.Mutex
	lat               []float64 // ms per request; +Inf when it failed
	waits             []float64 // X-Serve-Queue-Wait-Ms per admitted request
	scrapes           []float64 // ms per GET /metrics
	attempted, failed int
	exhausted         int
	hashes            map[string][32]byte // request key -> body digest
}

// window runs the closed-loop clients for seconds. Client 0 also
// scrapes /metrics once a second; scrapes stay out of the request
// latencies.
func (d *daemon) window(r *run, tr *tracer, lists [serveClients][]request, seconds float64) (*serveStats, float64) {
	st := &serveStats{hashes: map[string][32]byte{}}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastScrape := t0
			for i, q := range lists[c] {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if c == 0 && now.Sub(lastScrape) >= time.Second {
					lastScrape = now
					d.scrape(r, tr, st)
				}
				d.request(r, tr, q, st)
				if i == len(lists[c])-1 {
					st.mu.Lock()
					st.exhausted++
					st.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	if st.exhausted > 0 {
		r.logf("%d client(s) reached the end of their %d-request list before the window ended", st.exhausted, listLen)
	}
	return st, wall
}

// request sends one /render request and checks the response: a PNG of
// the requested size, byte-identical to any earlier response to the
// same (alg, frame, transparent).
func (d *daemon) request(r *run, tr *tracer, q request, st *serveStats) {
	id := tr.begin("serve.request", -1, tr.op())
	t0 := time.Now()
	status, hdr, body, err := d.get(q.url(d.base))
	el := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	if err == nil {
		err = checkPNG(status, body)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if err == nil {
		sum := sha256.Sum256(body)
		if prev, ok := st.hashes[q.key()]; ok && prev != sum {
			err = fmt.Errorf("body differs from an earlier response to the same request")
		}
		st.hashes[q.key()] = sum
	}
	if !r.check(err == nil, "GET %s: %v", q.url(""), err) {
		st.failed++
		st.lat = append(st.lat, math.Inf(1))
		return
	}
	st.lat = append(st.lat, el)
	if w, err := strconv.ParseFloat(hdr.Get("X-Serve-Queue-Wait-Ms"), 64); err == nil {
		st.waits = append(st.waits, w)
	}
}

// scrape fetches /metrics and checks it parses as Prometheus text.
func (d *daemon) scrape(r *run, tr *tracer, st *serveStats) {
	id := tr.begin("serve.scrape", -1, tr.op())
	t0 := time.Now()
	status, _, body, err := d.get(d.base + "/metrics")
	el := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		_, err = obs.ValidatePrometheus(body)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.scrapes = append(st.scrapes, el)
	if !r.check(err == nil, "GET /metrics: %v", err) {
		st.failed++
	}
}

// finish folds a window into the run and checks the admitted average
// power stayed within the budget.
func (d *daemon) finish(r *run, st *serveStats) {
	r.attempted += st.attempted + 1
	r.failed += st.failed
	adm := d.srv.Admission().Stats()
	if !r.check(adm.AvgWatts <= serveBudget, "admitted average %.2f W over the %.0f W budget", adm.AvgWatts, serveBudget) {
		r.failed++
	}
	cs := d.srv.Cache().Stats()
	if n := cs.Hits + cs.Misses + cs.Waits; n > 0 {
		r.values["serve.hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	var wait float64
	for _, w := range st.waits {
		wait += w
	}
	if len(st.waits) > 0 {
		r.values["serve.queue_wait_ms"] = wait / float64(len(st.waits))
	}
	r.values["serve.admitted_avg_w"] = adm.AvgWatts
	r.values["serve.rejected"] = float64(adm.Rejected)
	r.values["serve.scrape_ms"] = median(st.scrapes)
	r.logf("admitted avg %.2f W, %d rejected; cache %d entries, %d hits, %d builds; %d scrapes (median %.3f ms)",
		adm.AvgWatts, adm.Rejected, cs.Entries, cs.Hits, cs.Misses, len(st.scrapes), median(st.scrapes))
}

// runServe is the `serve` workload. The seed generates the request
// lists; the daemon sees only the requests. Set-up is repeated three
// times (the first two daemons are stopped) and its median reported.
func runServe(r *run) error {
	lists := requestLists(r.seed)
	if r.traced {
		return serveTraced(r, lists)
	}
	var setups, colds, warms []float64
	var d *daemon
	for i := 0; i < 3; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		settle()
		t0 := time.Now()
		var cold, warm float64
		var err error
		if d, cold, warm, err = startDaemon(r, par.Default(), nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		colds = append(colds, cold)
		warms = append(warms, warm)
	}
	st, wall := d.window(r, nil, lists, r.seconds)
	d.finish(r, st)
	if err := d.stop(); err != nil {
		return err
	}
	r.ops("requests", st.lat, wall, setups)
	pct, tl, _ := tail(st.lat)
	r.logf("serve_rps=%.3f serve_p50_ms=%.3f serve_tail_ms=%.3f (p%d); cold frame median %.3f ms, warm %.3f ms",
		r.values["ops_per_s"], median(st.lat), tl, pct, median(colds), median(warms))
	return nil
}

// serveTraced runs half the window against an untraced daemon, then
// the other half against a fresh daemon on an instrumented pool with
// every request under a span, then times the render layers directly.
func serveTraced(r *run, lists [serveClients][]request) error {
	half := r.seconds / 2
	d, _, _, err := startDaemon(r, par.Default(), nil)
	if err != nil {
		return err
	}
	plain, _ := d.window(r, nil, lists, half)
	d.finish(r, plain)
	if err := d.stop(); err != nil {
		return err
	}
	settle()

	tr := newTracer()
	pool := tracedPool()
	defer pool.Close()
	lo := tr.now()
	d, cold, warm, err := startDaemon(r, pool, tr)
	if err != nil {
		return err
	}
	st, _ := d.window(r, tr, lists, half)
	d.finish(r, st)
	if err := d.stop(); err != nil {
		return err
	}
	r.values["serve.cold_frame_ms"] = cold
	r.values["serve.warm_frame_ms"] = warm
	r.values["trace.overhead_ms"] = median(st.lat) - median(plain.lat)
	r.renderLayers(d.g, lists[0], st, pool, tr)
	hi := tr.now()
	r.poolShares(pool, float64(hi-lo)/1e9)
	r.dispatchNs()
	r.layerFromSpans(tr, lo, hi)
	return tr.write(r.spanPath())
}

// renderLayers times the calls the daemon makes per request, made
// directly on the daemon's dataset: the volren structure build, a
// frame of each renderer, the raytrace scene gather, the processor
// model and the PNG encode. Frames of the default transfer function
// must match the daemon's responses byte for byte.
func (r *run) renderLayers(g *mesh.UniformGrid, list []request, st *serveStats, pool *par.Pool, tr *tracer) {
	const frames = 16
	spec := cpu.BroadwellEP()
	ex := viz.NewExec(pool)
	op := tr.op()
	root := tr.begin("render.layers", -1, op)
	defer tr.end(root)
	field := g.PointField("energy")
	lo, hi := mesh.FieldRange(field)
	tfs := []float64{0}
	for _, q := range list {
		if q.transparent != 0 && len(tfs) < 4 {
			tfs = append(tfs, q.transparent)
		}
	}
	var vr *volren.Renderer
	for _, t := range tfs {
		tf := render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.25, Transparent: t}
		id := tr.begin("volren.build", root, op)
		rr := volren.NewRenderer(g, field, tf, ex).Prepare()
		tr.end(id)
		if vr == nil {
			vr = rr
		}
	}
	id := tr.begin("raytrace.scene", root, op)
	scene, err := raytrace.GatherScene(g, "energy", ex)
	tr.end(id)
	r.attempted++
	if !r.check(err == nil, "raytrace.GatherScene: %v", err) {
		r.failed++
		return
	}
	done := map[string]int{}
	for _, q := range list {
		if q.transparent != 0 || done[q.alg] == frames {
			continue
		}
		done[q.alg]++
		cam := render.OrbitCamera(g.Bounds(), 2*math.Pi*float64(q.frame)/serveImages, 0.35, 2.0)
		var im *render.Image
		id := tr.begin(q.alg+".frame", root, op)
		if q.alg == "volren" {
			im = vr.RenderImageInto(nil, cam, serveImg, serveImg, ex)
		} else {
			im = scene.RenderInto(nil, cam, serveImg, serveImg, ex)
		}
		tr.end(id)
		id = tr.begin("cpu.analyze", root, op)
		cpu.Analyze(spec, ex.Drain(), 0)
		tr.end(id)
		var buf bytes.Buffer
		id = tr.begin("serve.encode", root, op)
		err := im.WritePNG(&buf)
		tr.end(id)
		r.attempted++
		if err == nil {
			if want, ok := st.hashes[q.key()]; ok && want != sha256.Sum256(buf.Bytes()) {
				err = fmt.Errorf("differs from the daemon's response")
			}
		}
		if !r.check(err == nil, "direct %s frame %d: %v", q.alg, q.frame, err) {
			r.failed++
		}
	}
	s := tr.stats()
	for name, metric := range map[string]string{
		"volren.build":   "volren.build_ms",
		"volren.frame":   "volren.frame_ms",
		"raytrace.scene": "raytrace.scene_ms",
		"raytrace.frame": "raytrace.frame_ms",
		"serve.encode":   "serve.encode_ms",
	} {
		if sp, ok := s[name]; ok {
			r.values[metric] = sp.median() * 1e3
		}
	}
}
