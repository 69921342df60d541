# Build/test/benchmark wiring for the vizpower reproduction.
#
#   make check   - vet (gofmt check, then go vet on the root module and
#                  perfbench) + build + full test suite + short race pass
#   make loc     - print the non-test Go line count ROADMAP.md tracks
#                  (perfbench excluded)
#   make race    - the short -race run on the runtime, mesh layer, hydro
#                  proxy, rank fabric, and two kernels (the packages with
#                  real cross-goroutine traffic), plus the harness
#                  failure-injection paths
#   make bench   - the dispatch + kernel benchmarks recorded in BENCH_PR1.json,
#                  plus the BVH-vs-brute-force ablation
#                  (internal/viz/raytrace)
#   make bench-render - the render hot-path benchmarks recorded in
#                  BENCH_PR3.json (volren marcher vs its test-only
#                  reference sampler in internal/viz/volren, BVH build vs
#                  the test-only sort-median build in
#                  internal/viz/raytrace, traced frame, cinema encode
#                  queue), with -benchmem
#   make bench-advect - the advection hot-path benchmarks recorded in
#                  BENCH_PR4.json (fused-sampler SoA integrator vs the
#                  test-only reference, fixed + adaptive,
#                  32^3/64^3/128^3, in internal/viz/advect), plus the
#                  hydro hot path: the clover sweeps per axis at
#                  64^3/128^3 and ResampleCube 64->128, with -benchmem
#   make bench-advect-dist - the distributed parallelize-over-data
#                  advection benchmarks recorded in BENCH_PR6.json
#                  (reference/fast single-rank integrators vs dist.Advect
#                  at 1/2/4/8 ranks on a migration-heavy field, in
#                  internal/viz/advect), -benchmem
#   make bench-serve - the daemon benchmarks recorded in BENCH_PR7.json
#                  (cold vs warm frame latency through the derived-
#                  structure cache; admitted request throughput with the
#                  power-budget admission queue on vs off), -benchmem
#   make bench-dpp - the data-parallel-primitive backend benchmarks
#                  recorded in BENCH_PR8.json (traditional vs DPP
#                  contour/threshold at 32^3/64^3/128^3, plus the scan
#                  primitive's steady-state allocation check), -benchmem
#   make bench-govern - the closed-loop governor benchmarks recorded in
#                  BENCH_PR9.json (governed vs static phase plan vs
#                  uniform cap per budget, with the equal-energy replay
#                  columns), -benchmem
#   make bench-obs - the metrics-plane benchmarks recorded in
#                  BENCH_PR10.json (counter/sharded/histogram record
#                  cost, full-registry scrape, attribution join, and
#                  par.For dispatch bare next to instrumented, whose
#                  counters and chunk histogram are obs's), -benchmem
#   make fuzz    - run each native fuzz target (the VTK readers) for 10s;
#                  plain go test runs their seed corpora as ordinary tests
#   make govern  - run the vizpower govern subcommand at demonstration
#                  scale (closed-loop vs static vs uniform sweep table)
#   make profile - run the vizpower profile subcommand at demonstration
#                  scale into out/profile (trace.json + summary.txt),
#                  validating the exported JSON
#   make serve   - run the rendering daemon at demonstration scale on
#                  localhost:8080 with a 130 W budget
#
# Every test target carries -timeout 120s: the fabric tests deliberately
# create would-be deadlocks and rely on cancellation to unblock, so a
# hang must fail fast instead of stalling CI.

GO ?= go
GOFMT ?= gofmt

# Packages whose tests exercise multi-worker pools and shared buffers.
RACE_PKGS = ./internal/par ./internal/mesh ./internal/sim/clover ./internal/dpp ./internal/viz/... ./internal/cinema ./internal/dist ./internal/telemetry ./internal/serve ./internal/power ./internal/obs

.PHONY: check vet build test race loc fuzz bench bench-render bench-advect bench-advect-dist bench-serve bench-dpp bench-govern bench-obs govern profile serve

check: vet build test race

# perfbench is its own module, so the root ./... never builds it. vet
# fails first if any Go file (perfbench included) is not gofmt-clean.
vet:
	@unformatted=$$(find . -name '*.go' ! -path './.bench_build/*' | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

test: vet
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race -count=1 -timeout 120s $(RACE_PKGS)
	$(GO) test -race -count=1 -timeout 120s ./internal/viz/advect -run 'Compact|Golden|Seed'
	$(GO) test -race -count=1 -timeout 120s ./internal/harness -run 'Failure|Retry|Partial|Advect'

fuzz:
	$(GO) test -timeout 120s ./internal/vtkio -run xxx -fuzz '^FuzzReadTriMesh$$' -fuzztime 10s
	$(GO) test -timeout 120s ./internal/vtkio -run xxx -fuzz '^FuzzReadUnstructured$$' -fuzztime 10s

bench:
	$(GO) test -timeout 120s ./internal/par -run xxx -bench 'ParFor|ReduceSum' -benchtime=2s
	$(GO) test -timeout 120s . -run xxx -bench 'BenchmarkKernel(Contour|SphericalClip|Isovolume|Threshold|Slice)' -benchtime 5x
	$(GO) test -timeout 120s . -run xxx -bench BenchmarkAblationWeld -benchtime 10x
	$(GO) test -timeout 120s ./internal/viz/raytrace -run xxx -bench BenchmarkAblationBVH -benchtime 10x

bench-render:
	$(GO) test -timeout 600s ./internal/viz/volren -run xxx -benchmem \
		-bench 'BenchmarkVolrenFrame' -benchtime 5x
	$(GO) test -timeout 600s ./internal/viz/raytrace -run xxx -benchmem \
		-bench 'BenchmarkBVHBuildPaths' -benchtime 5x
	$(GO) test -timeout 600s . -run xxx -benchmem \
		-bench 'BenchmarkRayTraceFrame|BenchmarkCinemaOrbitSink' \
		-benchtime 5x

bench-advect:
	$(GO) test -timeout 600s ./internal/viz/advect -run xxx -benchmem \
		-bench 'BenchmarkAdvectPaths' -benchtime 3x
	$(GO) test -timeout 600s . -run xxx -benchmem \
		-bench 'BenchmarkCloverSweep' -benchtime 3x
	$(GO) test -timeout 600s ./internal/sim/clover -run xxx -benchmem \
		-bench 'BenchmarkSweepAxis' -benchtime 5x
	$(GO) test -timeout 600s ./internal/mesh -run xxx -benchmem \
		-bench 'BenchmarkResampleCube' -benchtime 3x

bench-advect-dist:
	$(GO) test -timeout 600s ./internal/viz/advect -run xxx -benchmem \
		-bench 'BenchmarkAdvectDist' \
		-benchtime 3x

bench-serve:
	$(GO) test -timeout 600s . -run xxx -benchmem \
		-bench 'BenchmarkServe' \
		-benchtime 5x

bench-dpp:
	$(GO) test -timeout 600s . -run xxx -benchmem \
		-bench 'BenchmarkDPP(Contour|Threshold)' \
		-benchtime 3x
	$(GO) test -timeout 600s . -run xxx -benchmem \
		-bench 'BenchmarkDPPScan' \
		-benchtime 100x

bench-govern:
	$(GO) test -timeout 600s . -run xxx -benchmem \
		-bench 'BenchmarkGovernCompare' \
		-benchtime 3x

bench-obs:
	$(GO) test -timeout 600s ./internal/obs -run xxx -benchmem \
		-bench 'BenchmarkObs' -benchtime=2s
	$(GO) test -timeout 600s . -run xxx -benchmem \
		-bench 'BenchmarkObs' -benchtime=2s
	$(GO) test -timeout 600s ./internal/par -run xxx -benchmem \
		-bench 'BenchmarkParForDispatch(Telemetry)?$$' -benchtime=2s

# Run the closed-loop governor sweep at demonstration scale.
govern:
	$(GO) run ./cmd/vizpower govern -quick -cycles 8

# Run the telemetry subcommand at demonstration scale and confirm the
# exported trace parses as Chrome trace-event JSON (the CLI re-validates
# the written bytes and fails the command otherwise).
profile:
	$(GO) run ./cmd/vizpower profile -quick -cap 80 -cycles 3 -out out/profile

# Run the daemon at demonstration scale (ctrl-C drains in-flight
# requests and finalizes the cinema manifests before exiting).
serve:
	$(GO) run ./cmd/vizpower serve -quick -addr localhost:8080 -budget 130 -out out
