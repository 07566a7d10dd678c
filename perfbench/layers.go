package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"accmos"
	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/opt"
	"accmos/internal/simresult"
	"accmos/internal/slx"
)

// span is one traced call into a layer, recorded by the benchmark around
// a module's public function. Spans of one job share Job; Parent is the
// index of the span that caused this one (-1 for a job's root).
type span struct {
	Name    string `json:"name"`
	Job     string `json:"job"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its index.
func (r *recorder) start(name, job string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, StartNs: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	r.spans[i].EndNs = time.Since(r.t0).Nanoseconds()
	return time.Duration(r.spans[i].EndNs - r.spans[i].StartNs)
}

// do runs fn inside a span and returns the span's index and duration.
func (r *recorder) do(name, job string, parent int, fn func() error) (int, time.Duration, error) {
	i := r.start(name, job, parent)
	err := fn()
	return i, r.end(i), err
}

// variant is one instrumentation level of the step-split probe.
type variant struct {
	name               string
	coverage, diagnose bool
}

var variants = []variant{{"plain", false, false}, {"coverage", true, false}, {"diagnose", true, true}}

// probeRow is what the layer probe measured for one model.
type probeRow struct {
	Model        string             `json:"model"`
	ParseMs      float64            `json:"parseMs"`
	ScheduleMs   float64            `json:"scheduleMs"`
	OptimizeMs   float64            `json:"optimizeMs"`
	GenerateMs   float64            `json:"generateMs"`
	ActorsBefore int                `json:"actorsBefore"`
	ActorsAfter  int                `json:"actorsAfter"`
	Passes       map[string]int     `json:"passes"`
	SourceKB     float64            `json:"sourceKB"`
	DiagSites    int                `json:"diagSites"`
	BuildColdS   float64            `json:"buildColdS"`
	BuildWarmS   float64            `json:"buildWarmS"`
	StepNs       map[string]float64 `json:"stepNsPerActorStep"`
	SpawnMs      float64            `json:"spawnMs"`
	DecodeMs     float64            `json:"decodeMs"`
}

var diagSitesRE = regexp.MustCompile(`var diagCounts \[(\d+)\]int64`)

// probe calls each module's public function directly for every model, at
// the paper's defaults (O1, test-case seed paperSeed): slx parse, actors
// schedule, opt optimize and codegen generate for the three
// instrumentation variants; harness build (cold, then GOCACHE-warm) and
// run; simresult decode. Every probe run is a checked job.
func probe(cfg *config, names []string, c *checker, rec *recorder) ([]probeRow, error) {
	rows := make([]probeRow, 0, len(names))
	cache, err := newCache(cfg, "probe")
	if err != nil {
		return nil, err
	}
	defer dropCache(cache)
	steps := cfg.sz.runSteps
	var refJobs []refJob
	for _, name := range names {
		bm, err := loadModel(cfg.root, name)
		if err != nil {
			return nil, err
		}
		refJobs = append(refJobs, refJob{model: bm, tcs: paperStimulus(bm.m, paperSeed), steps: steps})
	}
	refs, err := references(refJobs, refDir(cfg))
	if err != nil {
		return nil, err
	}
	for mi, name := range names {
		job := "probe-" + name
		row := probeRow{Model: name, Passes: map[string]int{}, StepNs: map[string]float64{}}
		root := rec.start("probe", job, -1)
		doc := refJobs[mi].model.doc
		tcs := refJobs[mi].tcs
		var (
			m  *accmos.Model
			c0 *actors.Compiled
		)
		_, d, err := rec.do("slx.parse", job, root, func() (err error) {
			m, err = slx.Decode(bytes.NewReader(doc))
			return err
		})
		if err != nil {
			return nil, err
		}
		row.ParseMs = ms(d)
		_, d, err = rec.do("actors.schedule", job, root, func() (err error) {
			c0, err = actors.Compile(m)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.ScheduleMs = ms(d)
		row.ActorsBefore = len(c0.Order)
		var (
			spawn     []float64
			paperProg *codegen.Program
		)
		for _, v := range variants {
			var (
				or   *opt.Result
				prog *codegen.Program
			)
			_, dOpt, err := rec.do("opt.optimize", job, root, func() (err error) {
				or, err = optimizeO1(c0, v)
				return err
			})
			if err != nil {
				return nil, err
			}
			_, dGen, err := rec.do("codegen.generate", job, root, func() (err error) {
				prog, err = generate(or, tcs, steps, v)
				return err
			})
			if err != nil {
				return nil, err
			}
			var bin string
			if _, _, err := rec.do("harness.build", job, root, func() (err error) {
				bin, _, _, err = cache.Build(prog, nil)
				return err
			}); err != nil {
				return nil, err
			}
			var res *simresult.Results
			if v == paperVariant {
				paperProg = prog
				// The paper configuration: time the decode of its result
				// document separately from the run.
				row.OptimizeMs, row.GenerateMs = ms(dOpt), ms(dGen)
				row.ActorsAfter = or.ActorsAfter
				for _, p := range or.Passes {
					row.Passes[p.Pass] = p.Changed
				}
				row.SourceKB = float64(len(prog.Source)) / 1024
				if sm := diagSitesRE.FindStringSubmatch(prog.Source); sm != nil {
					row.DiagSites, _ = strconv.Atoi(sm[1])
				}
				res, row.DecodeMs, err = runAndDecode(rec, job, root, bin, steps)
			} else {
				var d time.Duration
				_, d, err = rec.do("harness.run", job, root, func() (err error) {
					res, err = harness.Run(bin, harness.RunOptions{Steps: steps, Model: name})
					return err
				})
				if err == nil {
					spawn = append(spawn, ms(d)-float64(res.ExecNanos)/1e6)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("probe %s %s: %w", name, v.name, err)
			}
			row.StepNs[v.name] = float64(res.ExecNanos) / float64(row.ActorsBefore) / float64(steps)
			c.check(fmt.Sprintf("probe %s O1 %s seed=%d steps=%d", name, v.name, paperSeed, steps), name, res, refs[mi])
		}
		row.SpawnMs = median(spawn)
		cold, warm, err := buildColdWarm(cfg, rec, job, root, paperProg)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		row.BuildColdS, row.BuildWarmS = cold, warm
		rec.end(root)
		rows = append(rows, row)
	}
	return rows, nil
}

// buildColdWarm builds the paper configuration in a directory go has
// never compiled in (the source path is part of go's compile cache key,
// so the model package compiles cold against the warm standard library),
// then builds it again at the same path from an emptied build cache (a
// GOCACHE-warm relink). It returns both compile times in seconds.
func buildColdWarm(cfg *config, rec *recorder, job string, root int, prog *codegen.Program) (float64, float64, error) {
	cache, err := freshCache(cfg, "cold")
	if err != nil {
		return 0, 0, err
	}
	defer dropCache(cache)
	var times [2]float64
	for i, name := range []string{"harness.build_cold", "harness.build_warm"} {
		cache.Remove()
		var compile time.Duration
		if _, _, err := rec.do(name, job, root, func() (err error) {
			_, compile, _, err = cache.Build(prog, nil)
			return err
		}); err != nil {
			return 0, 0, err
		}
		times[i] = compile.Seconds()
	}
	return times[0], times[1], nil
}

// runAndDecode executes a generated binary the way the harness does for
// one run and times the decode of its result document on its own.
func runAndDecode(rec *recorder, job string, root int, bin string, steps int64) (*simresult.Results, float64, error) {
	var out []byte
	if _, _, err := rec.do("harness.run", job, root, func() (err error) {
		out, err = exec.Command(bin, fmt.Sprintf("-steps=%d", steps)).Output()
		return err
	}); err != nil {
		return nil, 0, err
	}
	var res simresult.Results
	_, d, err := rec.do("simresult.decode", job, root, func() error {
		return json.NewDecoder(bytes.NewReader(out)).Decode(&res)
	})
	return &res, ms(d), err
}

// laneDecodeMs runs one batch of lanes on bin and times the per-lane
// decode the harness applies to batch results (the generated-field-order
// fast path, falling back to encoding/json).
func laneDecodeMs(rec *recorder, bin string, seeds []uint64, steps int64) (float64, error) {
	list := make([]string, len(seeds))
	for i, s := range seeds {
		list[i] = strconv.FormatUint(s, 10)
	}
	var out []byte
	if _, _, err := rec.do("harness.run_batch", "probe-lanes", -1, func() (err error) {
		out, err = exec.Command(bin, "-batch-seeds="+strings.Join(list, ","), fmt.Sprintf("-steps=%d", steps)).Output()
		return err
	}); err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<26)
	var lanes [][]byte
	for sc.Scan() {
		lanes = append(lanes, append([]byte(nil), sc.Bytes()...))
	}
	if len(lanes) != len(seeds)+1 {
		return 0, fmt.Errorf("batch run printed %d lines for %d lanes", len(lanes), len(seeds))
	}
	lanes = lanes[1:] // the header carries the merged coverage
	_, d, err := rec.do("simresult.decode", "probe-lanes", -1, func() error {
		for _, l := range lanes {
			var r simresult.Results
			if simresult.DecodeGenerated(l, &r) {
				continue
			}
			if err := json.Unmarshal(l, &r); err != nil {
				return err
			}
		}
		return nil
	})
	return ms(d) / float64(len(lanes)), err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// unitStats are the per-layer figures taken from one untraced timed unit.
type unitStats struct {
	wall, tracedWall float64 // seconds
	jobs             int
	execSum          float64 // Σ binary-reported step-loop seconds
	concurrency      float64 // jobs stepping at once
	cov              accmos.CoverageReport
	diagTotal        int64
	batches          float64
	lanesPerBatch    float64
	reuseRatio       float64
}

// layerMetrics combines the probe rows and the unit figures into the
// per-layer metrics (sums over models, or step cost per actor-step
// weighted by each model's size).
func layerMetrics(rows []probeRow, u unitStats) map[string]metric {
	var (
		parse, sched, optim, gen, srcKB, cold, warm, spawn, decode float64
		after, folded, cse, dce, diagSites                         int
		stepNs                                                     = map[string]float64{}
		actors                                                     float64
	)
	for _, r := range rows {
		parse += r.ParseMs
		sched += r.ScheduleMs
		optim += r.OptimizeMs
		gen += r.GenerateMs
		after += r.ActorsAfter
		folded += r.Passes["constfold"]
		cse += r.Passes["cse"]
		dce += r.Passes["dce"]
		srcKB += r.SourceKB
		diagSites += r.DiagSites
		cold += r.BuildColdS
		warm += r.BuildWarmS
		spawn += r.SpawnMs / float64(len(rows))
		decode += r.DecodeMs / float64(len(rows))
		for k, v := range r.StepNs {
			stepNs[k] += v * float64(r.ActorsBefore)
		}
		actors += float64(r.ActorsBefore)
	}
	pct := func(covered, total int) metric { return num(100*float64(covered)/float64(total), "%") }
	return map[string]metric{
		"slx.parse_ms":                            num(parse, "ms"),
		"actors.schedule_ms":                      num(sched, "ms"),
		"opt.optimize_ms":                         num(optim, "ms"),
		"codegen.generate_ms":                     num(gen, "ms"),
		"opt.actors_after":                        num(float64(after), "count"),
		"opt.folded":                              num(float64(folded), "count"),
		"opt.cse_merged":                          num(float64(cse), "count"),
		"opt.dce_removed":                         num(float64(dce), "count"),
		"codegen.source_kb":                       num(srcKB, "KiB"),
		"codegen.diag_sites":                      num(float64(diagSites), "count"),
		"harness.build_cold_s":                    num(cold, "s"),
		"harness.build_warm_s":                    num(warm, "s"),
		"codegen.step_plain_ns_per_actor_step":    num(stepNs["plain"]/actors, "ns"),
		"codegen.step_coverage_ns_per_actor_step": num(stepNs["coverage"]/actors, "ns"),
		"codegen.step_diagnose_ns_per_actor_step": num(stepNs["diagnose"]/actors, "ns"),
		"harness.spawn_ms":                        num(spawn, "ms"),
		"simresult.decode_ms":                     num(decode, "ms"),
		"harness.dispatch_ms_per_run":             num(1e3*(u.wall-u.execSum/u.concurrency)/float64(u.jobs), "ms"),
		"harness.batches":                         num(u.batches, "count"),
		"harness.lanes_per_batch":                 num(u.lanesPerBatch, "count"),
		"harness.worker_reuse_ratio":              num(u.reuseRatio, "ratio"),
		"coverage.merged_actor_pct":               pct(u.cov.ActorCovered, u.cov.ActorTotal),
		"coverage.merged_cond_pct":                pct(u.cov.CondCovered, u.cov.CondTotal),
		"coverage.merged_dec_pct":                 pct(u.cov.DecCovered, u.cov.DecTotal),
		"coverage.merged_mcdc_pct":                pct(u.cov.MCDCCovered, u.cov.MCDCTotal),
		"diagnose.total":                          num(float64(u.diagTotal), "count"),
		"trace.overhead_pct":                      num(100*(u.tracedWall-u.wall)/u.wall, "%"),
	}
}

// sumJobs folds the results of one unit of single-model jobs into unit
// figures: coverage summed over the models' points, diagnoses and step
// time summed over jobs.
func sumJobs(results []*accmos.Result) unitStats {
	u := unitStats{jobs: len(results), concurrency: 1}
	for _, r := range results {
		rep := r.CoverageReport()
		u.cov.ActorCovered += rep.ActorCovered
		u.cov.ActorTotal += rep.ActorTotal
		u.cov.CondCovered += rep.CondCovered
		u.cov.CondTotal += rep.CondTotal
		u.cov.DecCovered += rep.DecCovered
		u.cov.DecTotal += rep.DecTotal
		u.cov.MCDCCovered += rep.MCDCCovered
		u.cov.MCDCTotal += rep.MCDCTotal
		u.diagTotal += r.DiagTotal
		u.execSum += float64(r.ExecNanos) / 1e9
	}
	return u
}

// tracedTracers gives each job of a traced unit its own program-side
// phase tracer, so the record holds the pipeline spans of every job.
type tracedTracers []*accmos.Tracer

func newTracers(n int) tracedTracers {
	t := make(tracedTracers, n)
	for i := range t {
		t[i] = accmos.NewTracer()
	}
	return t
}

func (t tracedTracers) get(i int) *accmos.Tracer { return t[i] }

func (t tracedTracers) record(names []string) map[string]any {
	out := make(map[string]any, len(t))
	for i, tr := range t {
		out[names[i]] = tr.Trace()
	}
	return out
}

func modelNames(models []*benchModel) []string {
	out := make([]string, len(models))
	for i, bm := range models {
		out[i] = bm.name
	}
	return out
}

// tracedOutcome assembles a traced run's result.
func tracedOutcome(cfg *config, c *checker, rec *recorder, u unitStats, names []string, extra map[string]any) (*outcome, error) {
	rows, err := probe(cfg, names, c, rec)
	if err != nil {
		return nil, err
	}
	record := map[string]any{"probe": rows, "spans": rec.spans, "unit": map[string]any{
		"wallS": u.wall, "tracedWallS": u.tracedWall, "jobs": u.jobs, "execSumS": u.execSum,
	}}
	for k, v := range extra {
		record[k] = v
	}
	return &outcome{metrics: layerMetrics(rows, u), check: c, record: record}, nil
}

// tracedPaperRun: one untraced and one traced pass, then the probe.
func tracedPaperRun(cfg *config) (*outcome, error) {
	cfg.sz.runSetupReps = 1
	st, err := setupPaperRun(cfg)
	if err != nil {
		return nil, err
	}
	defer dropCache(st.cache)
	c := &checker{}
	rec := newRecorder()
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	wall, results, err := st.pass(cfg, rng, c, nil)
	if err != nil {
		return nil, err
	}
	u := sumJobs(results)
	u.wall = wall.Seconds()
	tr := newTracers(len(st.models))
	_, d, err := rec.do("paper-run.pass", "paper-run.pass", -1, func() error {
		_, _, err := st.pass(cfg, rng, c, tr.get)
		return err
	})
	if err != nil {
		return nil, err
	}
	u.tracedWall = d.Seconds()
	names := modelNames(st.models)
	return tracedOutcome(cfg, c, rec, u, names, map[string]any{"programSpans": tr.record(names)})
}

// tracedPaperCold: one untraced and one traced repetition, then the probe.
func tracedPaperCold(cfg *config) (*outcome, error) {
	cfg.sz.setupReps = 1
	st, err := setupPaperCold(cfg)
	if err != nil {
		return nil, err
	}
	c := &checker{}
	rec := newRecorder()
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	wall, results, err := st.rep(cfg, 0, rng, c, nil)
	if err != nil {
		return nil, err
	}
	u := sumJobs(results)
	u.wall = wall.Seconds()
	tr := newTracers(len(st.models))
	// The traced repetition needs its own references (a new seed), so the
	// span wraps only its timed region.
	d, _, err := st.rep(cfg, 1, rng, c, tr.get)
	if err != nil {
		return nil, err
	}
	u.tracedWall = d.Seconds()
	names := modelNames(st.models)
	return tracedOutcome(cfg, c, rec, u, names, map[string]any{"programSpans": tr.record(names)})
}

// tracedCSEV: one untraced and one traced sweep, the batch-lane decode,
// then the probe of CSEV.
func tracedCSEV(cfg *config) (*outcome, error) {
	cfg.sz.setupReps = 1
	st, err := setupCSEV(cfg)
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := &checker{}
	rec := newRecorder()
	before := st.pool.Stats()
	wall, sw, err := st.sweep(cfg, c, nil)
	if err != nil {
		return nil, err
	}
	after := st.pool.Stats()
	u := unitStats{wall: wall.Seconds(), jobs: len(sw.Runs), concurrency: sweepWorkers, cov: sw.MergedCoverage()}
	for _, r := range sw.Runs {
		u.diagTotal += r.DiagTotal
		u.execSum += float64(r.ExecNanos) / 1e9
	}
	u.batches = float64(after.Batches - before.Batches)
	u.lanesPerBatch = float64(len(sw.Runs)) / u.batches
	if req := (after.Spawns - before.Spawns) + (after.Reuses - before.Reuses); req > 0 {
		u.reuseRatio = float64(after.Reuses-before.Reuses) / float64(req)
	}
	tr := accmos.NewTracer()
	_, d, err := rec.do("csev-sweep.sweep", "csev-sweep.sweep", -1, func() error {
		_, _, err := st.sweep(cfg, c, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	u.tracedWall = d.Seconds()
	bin, err := csevBinary(cfg, st)
	if err != nil {
		return nil, err
	}
	chunk := st.seeds[:len(st.seeds)/sweepWorkers]
	decode, err := laneDecodeMs(rec, bin, chunk, cfg.sz.sweepSteps)
	if err != nil {
		return nil, err
	}
	out, err := tracedOutcome(cfg, c, rec, u, []string{"CSEV"}, map[string]any{"programSpans": tr.Trace()})
	if err != nil {
		return nil, err
	}
	// The sweep decodes batch lanes, not whole result documents.
	out.metrics["simresult.decode_ms"] = num(decode, "ms")
	return out, nil
}

// csevBinary builds the sweep's program (coverage and diagnosis on, the
// sweep horizon compiled in) through the harness and returns the binary.
func csevBinary(cfg *config, st *csevState) (string, error) {
	c0, err := actors.Compile(st.bm.m)
	if err != nil {
		return "", err
	}
	prog, err := paperProgram(c0, paperStimulus(st.bm.m, paperSeed), cfg.sz.sweepSteps)
	if err != nil {
		return "", err
	}
	bin, _, _, err := st.cache.Build(prog, nil)
	return bin, err
}

var paperVariant = variants[len(variants)-1]

// optimizeO1 runs the O1 pass pipeline for one instrumentation variant.
func optimizeO1(c0 *actors.Compiled, v variant) (*opt.Result, error) {
	return opt.Optimize(c0, opt.Options{Level: opt.O1, Coverage: v.coverage, Diagnose: v.diagnose})
}

// generate emits the program for an optimized model, with the step
// horizon compiled in as its default.
func generate(or *opt.Result, tcs *accmos.TestCases, steps int64, v variant) (*codegen.Program, error) {
	return codegen.Generate(or.Compiled, codegen.Options{
		Coverage: v.coverage, Diagnose: v.diagnose, TestCases: tcs,
		Layout: or.Layout, Premark: or.Premark, Opt: opt.O1.String(), Plan: or.Plan,
		DefaultSteps: steps,
	})
}

// paperProgram optimizes and generates the paper configuration.
func paperProgram(c0 *actors.Compiled, tcs *accmos.TestCases, steps int64) (*codegen.Program, error) {
	or, err := optimizeO1(c0, paperVariant)
	if err != nil {
		return nil, err
	}
	return generate(or, tcs, steps, paperVariant)
}
