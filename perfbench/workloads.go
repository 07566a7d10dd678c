package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"accmos"
)

// benchModel is one loaded benchmark model.
type benchModel struct {
	name   string
	doc    []byte // the model document as read from models/
	m      *accmos.Model
	actors int // scheduled actors before any optimization
}

func loadModel(root, name string) (*benchModel, error) {
	doc, err := os.ReadFile(modelPath(root, name))
	if err != nil {
		return nil, err
	}
	m, err := accmos.LoadModelBytes(doc)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", name, err)
	}
	c, err := accmos.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", name, err)
	}
	return &benchModel{name: name, doc: doc, m: m, actors: len(c.Order)}, nil
}

func loadModels(root string, names []string) ([]*benchModel, error) {
	out := make([]*benchModel, len(names))
	for i, n := range names {
		bm, err := loadModel(root, n)
		if err != nil {
			return nil, err
		}
		out[i] = bm
	}
	return out, nil
}

// paperOptions are the paper's default settings: O1, coverage and
// diagnosis on, stimulus from paperStimulus.
func paperOptions(bm *benchModel, tcSeed uint64, steps int64, cache *accmos.BuildCache) accmos.Options {
	return accmos.Options{
		Steps:     steps,
		Coverage:  true,
		Diagnose:  true,
		OptLevel:  accmos.OptO1,
		TestCases: paperStimulus(bm.m, tcSeed),
		Cache:     cache,
	}
}

// paperStimulus is the experiments' test-case set: uniform over [-100, 100].
func paperStimulus(m *accmos.Model, seed uint64) *accmos.TestCases {
	return accmos.RandomTestCases(m, seed, -100, 100)
}

// newCache makes an empty build cache in the directory builds/<tag> under
// the output directory. The directory path is fixed per tag because the
// generated file's path is part of go's compile cache key: a program
// already built at that path relinks against a warm GOCACHE, a program
// with new source compiles cold.
func newCache(cfg *config, tag string) (*accmos.BuildCache, error) {
	dir := filepath.Join(cfg.out, "builds", tag)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return accmos.NewBuildCache(dir), nil
}

// freshCache makes an empty build cache in a directory no build has used
// yet: every program built there compiles cold against the warm standard
// library, even if the same source was built before at another path.
func freshCache(cfg *config, tag string) (*accmos.BuildCache, error) {
	root := filepath.Join(cfg.out, "builds")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, tag+"-")
	if err != nil {
		return nil, err
	}
	return accmos.NewBuildCache(dir), nil
}

// dropCache empties a cache made by newCache and deletes its directory.
func dropCache(c *accmos.BuildCache) {
	dir := c.Dir()
	c.Remove()
	os.RemoveAll(dir)
}

// refDir caches references whose inputs repeat across runs.
func refDir(cfg *config) string { return filepath.Join(cfg.out, "ref") }

// timedUnits calls unit until the timed total reaches cfg.seconds, and at
// least cfg.sz.minUnits times. unit returns its own timed span, so
// reference computations it makes between timed regions are excluded.
func timedUnits(cfg *config, unit func(i int) (time.Duration, error)) ([]float64, error) {
	var (
		walls []float64
		total time.Duration
	)
	for i := 0; i < cfg.sz.minUnits || total < cfg.seconds; i++ {
		d, err := unit(i)
		if err != nil {
			return nil, err
		}
		total += d
		walls = append(walls, d.Seconds())
	}
	return walls, nil
}

// e2e assembles the end-to-end metrics shared by every workload.
type e2e struct {
	wall        float64 // median timed-unit wall clock, seconds
	actorSteps  float64 // Σ unoptimized actors × steps per unit
	jobs        float64 // jobs per unit
	compile     float64 // seconds
	genSourceKB float64
	setup       float64 // median set-up, seconds
}

func (e e2e) metrics(c *checker) map[string]metric {
	return map[string]metric{
		"wall_s":             num(e.wall, "s"),
		"Mactor_steps_per_s": num(e.actorSteps/e.wall/1e6, "Mactor-steps/s"),
		"jobs_per_s":         num(e.jobs/e.wall, "1/s"),
		"compile_s":          num(e.compile, "s"),
		"gen_source_kb":      num(e.genSourceKB, "KiB"),
		"child_maxrss_mb":    childMaxRSS(),
		"ok_share":           num(c.okShare(), "ratio"),
		"setup_s":            num(e.setup, "s"),
	}
}

// childMaxRSS is the peak resident set of any terminated child process
// (go build and its compiler and linker, generated binaries, workers).
func childMaxRSS() metric {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil || ru.Maxrss <= 0 {
		return metric{Value: notMeasured, Unit: "MiB"}
	}
	return num(float64(ru.Maxrss)/1024, "MiB") // Linux reports KiB
}

// sourceKB is the size of the program Simulate would generate.
func sourceKB(bm *benchModel, opts accmos.Options) (float64, error) {
	src, err := accmos.GenerateSource(bm.m, opts)
	if err != nil {
		return 0, fmt.Errorf("generating %s: %w", bm.name, err)
	}
	return float64(len(src)) / 1024, nil
}

// paperRunState is paper-run after set-up: models loaded, binaries built.
type paperRunState struct {
	models  []*benchModel
	cache   *accmos.BuildCache
	refs    []*reference
	setup   []float64
	compile []float64
	srcKB   float64
}

// setupPaperRun loads the models and builds every binary with the exact
// options the timed region uses (the step horizon is compiled into the
// program), cfg.sz.runSetupReps times from an empty build cache; the last
// repetition's cache serves the timed region.
func setupPaperRun(cfg *config) (*paperRunState, error) {
	st := &paperRunState{}
	for r := 0; r < cfg.sz.runSetupReps; r++ {
		t0 := time.Now()
		if st.cache != nil {
			dropCache(st.cache)
		}
		models, err := loadModels(cfg.root, cfg.sz.models)
		if err != nil {
			return nil, err
		}
		cache, err := newCache(cfg, "paper-run")
		if err != nil {
			return nil, err
		}
		var compile time.Duration
		for _, bm := range models {
			// A 1 ms budget builds the same program and stops its run
			// almost at once: the budget is a run flag, not compiled in.
			opts := paperOptions(bm, paperSeed, cfg.sz.runSteps, cache)
			opts.Budget = time.Millisecond
			res, err := accmos.Simulate(bm.m, opts)
			if err != nil {
				return nil, fmt.Errorf("paper-run set-up %s: %w", bm.name, err)
			}
			compile += time.Duration(res.CompileNanos)
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.compile = append(st.compile, compile.Seconds())
		st.models, st.cache = models, cache
	}
	jobs := make([]refJob, len(st.models))
	for i, bm := range st.models {
		opts := paperOptions(bm, paperSeed, cfg.sz.runSteps, nil)
		jobs[i] = refJob{model: bm, tcs: opts.TestCases, steps: cfg.sz.runSteps}
		kb, err := sourceKB(bm, opts)
		if err != nil {
			return nil, err
		}
		st.srcKB += kb
	}
	refs, err := references(jobs, refDir(cfg))
	if err != nil {
		return nil, err
	}
	st.refs = refs
	return st, nil
}

// paperPass runs every model once, sequentially, in an order drawn from
// rng, and returns the pass wall clock and the per-model results (in
// model order). A build inside the pass is an error: set-up must have
// warmed exactly these programs.
func (st *paperRunState) pass(cfg *config, rng *rand.Rand, c *checker, tracer func(i int) *accmos.Tracer) (time.Duration, []*accmos.Result, error) {
	results := make([]*accmos.Result, len(st.models))
	order := rng.Perm(len(st.models))
	t0 := time.Now()
	for _, i := range order {
		bm := st.models[i]
		opts := paperOptions(bm, paperSeed, cfg.sz.runSteps, st.cache)
		if tracer != nil {
			opts.Trace = tracer(i)
		}
		res, err := accmos.Simulate(bm.m, opts)
		if err != nil {
			return 0, nil, fmt.Errorf("paper-run %s: %w", bm.name, err)
		}
		if !res.CacheHit {
			return 0, nil, fmt.Errorf("paper-run %s: go build ran inside the timed region", bm.name)
		}
		results[i] = res
	}
	wall := time.Since(t0)
	for i, bm := range st.models {
		c.check(fmt.Sprintf("paper-run %s O1 seed=%d steps=%d", bm.name, paperSeed, cfg.sz.runSteps), bm.name, results[i].Results, st.refs[i])
	}
	return wall, results, nil
}

func (st *paperRunState) actorSteps(steps int64) float64 {
	var n float64
	for _, bm := range st.models {
		n += float64(bm.actors) * float64(steps)
	}
	return n
}

// paperRun: the ten models at the paper's defaults, binaries built in
// set-up, each model run once per pass at a long horizon.
func paperRun(cfg *config) (*outcome, error) {
	st, err := setupPaperRun(cfg)
	if err != nil {
		return nil, err
	}
	defer dropCache(st.cache)
	c := &checker{}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	walls, err := timedUnits(cfg, func(int) (time.Duration, error) {
		d, _, err := st.pass(cfg, rng, c, nil)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	e := e2e{
		wall: median(walls), actorSteps: st.actorSteps(cfg.sz.runSteps), jobs: float64(len(st.models)),
		compile: median(st.compile), genSourceKB: st.srcKB, setup: median(st.setup),
	}
	return &outcome{metrics: e.metrics(c), check: c, record: map[string]any{
		"passWalls": walls, "setups": st.setup, "compiles": st.compile,
	}}, nil
}

// paperColdState is paper-cold after set-up.
type paperColdState struct {
	models  []*benchModel
	setup   []float64
	compile []float64 // Σ go build seconds per repetition
	srcKB   []float64
}

// setupPaperCold loads the models and warms the toolchain (the standard
// library in GOCACHE) with one build, cfg.sz.setupReps times.
func setupPaperCold(cfg *config) (*paperColdState, error) {
	st := &paperColdState{}
	for r := 0; r < cfg.sz.setupReps; r++ {
		t0 := time.Now()
		models, err := loadModels(cfg.root, cfg.sz.models)
		if err != nil {
			return nil, err
		}
		cache, err := newCache(cfg, "paper-cold-setup")
		if err != nil {
			return nil, err
		}
		warm := models[len(models)-1]
		opts := paperOptions(warm, paperSeed, cfg.sz.coldSteps, cache)
		opts.Budget = time.Millisecond
		_, err = accmos.Simulate(warm.m, opts)
		dropCache(cache)
		if err != nil {
			return nil, fmt.Errorf("paper-cold set-up: %w", err)
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.models = models
	}
	return st, nil
}

// rep runs every model as a fresh job: a new test-case seed (embedded in
// the generated source) and an empty build cache in a new directory, so
// go's package cache misses even when a seed repeats in this checkout.
// The O0 interpreter references for the repetition are computed before
// its timed region.
func (st *paperColdState) rep(cfg *config, r int, rng *rand.Rand, c *checker, tracer func(i int) *accmos.Tracer) (time.Duration, []*accmos.Result, error) {
	tcSeed := mix(cfg.seed, uint64(r))
	jobs := make([]refJob, len(st.models))
	for i, bm := range st.models {
		jobs[i] = refJob{model: bm, tcs: paperStimulus(bm.m, tcSeed), steps: cfg.sz.coldSteps, interp: true}
	}
	refs, err := references(jobs, "")
	if err != nil {
		return 0, nil, err
	}
	cache, err := freshCache(cfg, "paper-cold")
	if err != nil {
		return 0, nil, err
	}
	defer dropCache(cache)
	results := make([]*accmos.Result, len(st.models))
	order := rng.Perm(len(st.models))
	t0 := time.Now()
	for _, i := range order {
		bm := st.models[i]
		opts := paperOptions(bm, tcSeed, cfg.sz.coldSteps, cache)
		if tracer != nil {
			opts.Trace = tracer(i)
		}
		res, err := accmos.Simulate(bm.m, opts)
		if err != nil {
			return 0, nil, fmt.Errorf("paper-cold %s: %w", bm.name, err)
		}
		if res.CacheHit {
			return 0, nil, fmt.Errorf("paper-cold %s: build cache hit on a fresh job", bm.name)
		}
		results[i] = res
	}
	wall := time.Since(t0)
	var compile time.Duration
	var kb float64
	for i, bm := range st.models {
		compile += time.Duration(results[i].CompileNanos)
		c.check(fmt.Sprintf("paper-cold %s O1 seed=%d steps=%d", bm.name, tcSeed, cfg.sz.coldSteps), bm.name, results[i].Results, refs[i])
		k, err := sourceKB(bm, paperOptions(bm, tcSeed, cfg.sz.coldSteps, nil))
		if err != nil {
			return 0, nil, err
		}
		kb += k
	}
	st.compile = append(st.compile, compile.Seconds())
	st.srcKB = append(st.srcKB, kb)
	return wall, results, nil
}

// paperCold: the same ten models as fresh jobs at a short horizon; each
// repetition is really cold (new seed, empty build cache).
func paperCold(cfg *config) (*outcome, error) {
	st, err := setupPaperCold(cfg)
	if err != nil {
		return nil, err
	}
	c := &checker{}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	walls, err := timedUnits(cfg, func(r int) (time.Duration, error) {
		d, _, err := st.rep(cfg, r, rng, c, nil)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	var actorSteps float64
	for _, bm := range st.models {
		actorSteps += float64(bm.actors) * float64(cfg.sz.coldSteps)
	}
	e := e2e{
		wall: median(walls), actorSteps: actorSteps, jobs: float64(len(st.models)),
		compile: median(st.compile), genSourceKB: median(st.srcKB), setup: median(st.setup),
	}
	return &outcome{metrics: e.metrics(c), check: c, record: map[string]any{
		"repWalls": walls, "setups": st.setup, "compiles": st.compile,
	}}, nil
}

// csevState is csev-sweep after set-up: one warm pool and cache.
type csevState struct {
	bm      *benchModel
	seeds   []uint64
	cache   *accmos.BuildCache
	pool    *accmos.WorkerPool
	refs    []*reference
	setup   []float64
	compile []float64
	srcKB   float64
}

// sweepWorkers bounds the pool and the concurrent batches.
const sweepWorkers = 2

func (st *csevState) options(cfg *config) accmos.Options {
	opts := paperOptions(st.bm, paperSeed, cfg.sz.sweepSteps, st.cache)
	opts.Pool = st.pool
	opts.Parallelism = sweepWorkers
	return opts
}

// setupCSEV loads CSEV, builds it and warms a two-worker pool with a
// short sweep at the exact timed options, cfg.sz.setupReps times; the
// last repetition's cache and pool serve the timed region.
func setupCSEV(cfg *config) (*csevState, error) {
	st := &csevState{seeds: make([]uint64, cfg.sz.sweepSeeds)}
	for i := range st.seeds {
		st.seeds[i] = mix(cfg.seed, uint64(i))
	}
	for r := 0; r < cfg.sz.setupReps; r++ {
		if st.pool != nil {
			st.close()
		}
		t0 := time.Now()
		bm, err := loadModel(cfg.root, "CSEV")
		if err != nil {
			return nil, err
		}
		cache, err := newCache(cfg, "csev-sweep")
		if err != nil {
			return nil, err
		}
		st.bm, st.cache, st.pool = bm, cache, accmos.NewWorkerPool(sweepWorkers)
		// Eight lanes per worker (the smallest batch Sweep forms), so the
		// warm-up starts every worker of the pool.
		warm := make([]uint64, 8*sweepWorkers)
		for i := range warm {
			warm[i] = mix(^cfg.seed, uint64(i))
		}
		sw, err := accmos.Sweep(bm.m, st.options(cfg), warm)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("csev-sweep set-up: %w", err)
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.compile = append(st.compile, float64(sw.Runs[0].CompileNanos)/1e9)
	}
	base := paperStimulus(st.bm.m, paperSeed)
	jobs := make([]refJob, len(st.seeds))
	for i, s := range st.seeds {
		jobs[i] = refJob{model: st.bm, tcs: xorSuite(base, s), steps: cfg.sz.sweepSteps}
	}
	refs, err := references(jobs, "")
	if err != nil {
		st.close()
		return nil, err
	}
	st.refs = refs
	kb, err := sourceKB(st.bm, st.options(cfg))
	if err != nil {
		st.close()
		return nil, err
	}
	st.srcKB = kb
	return st, nil
}

func (st *csevState) close() {
	st.pool.Close()
	dropCache(st.cache)
}

// sweep runs every seed once through Sweep and checks each lane.
func (st *csevState) sweep(cfg *config, c *checker, tr *accmos.Tracer) (time.Duration, *accmos.SweepResult, error) {
	opts := st.options(cfg)
	opts.Trace = tr
	t0 := time.Now()
	sw, err := accmos.Sweep(st.bm.m, opts, st.seeds)
	wall := time.Since(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("csev-sweep: %w", err)
	}
	for i, r := range sw.Runs {
		if !r.CacheHit {
			return 0, nil, fmt.Errorf("csev-sweep: go build ran inside the timed region")
		}
		c.check(fmt.Sprintf("csev-sweep CSEV O1 lane %d seedXor=%d steps=%d", i, st.seeds[i], cfg.sz.sweepSteps), "CSEV", r.Results, st.refs[i])
	}
	return wall, sw, nil
}

// csevSweep: CSEV, many seeds at a short horizon, batched through a warm
// pool, merged coverage.
func csevSweep(cfg *config) (*outcome, error) {
	st, err := setupCSEV(cfg)
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := &checker{}
	var merged []accmos.CoverageReport
	walls, err := timedUnits(cfg, func(int) (time.Duration, error) {
		d, sw, err := st.sweep(cfg, c, nil)
		if err == nil {
			merged = append(merged, sw.MergedCoverage())
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	for _, r := range merged[1:] {
		if r != merged[0] {
			return nil, fmt.Errorf("csev-sweep: merged coverage differs between identical sweeps: %+v vs %+v", r, merged[0])
		}
	}
	lanes := float64(len(st.seeds))
	e := e2e{
		wall: median(walls), actorSteps: float64(st.bm.actors) * float64(cfg.sz.sweepSteps) * lanes, jobs: lanes,
		compile: median(st.compile), genSourceKB: st.srcKB, setup: median(st.setup),
	}
	return &outcome{metrics: e.metrics(c), check: c, record: map[string]any{
		"sweepWalls": walls, "setups": st.setup, "compiles": st.compile, "mergedCoverage": merged[0],
	}}, nil
}
