package codegen_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/opt/partition"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// The partition oracle: a pipelined build must be bit-identical to the
// sequential build AND to the interpreter — output hash, coverage
// bitmaps, diagnosis aggregates and the verbatim record stream — in
// one-shot and batch-lane modes.

// wideComputeModel: nChains independent transcendental chains merged
// into shared outputs — plenty of legal boundaries.
func wideComputeModel(t *testing.T, nChains, depth int) *actors.Compiled {
	t.Helper()
	b := model.NewBuilder("PARTWIDE")
	for ci := 0; ci < nChains; ci++ {
		in := fmt.Sprintf("In%d", ci)
		b.Add(in, "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", fmt.Sprint(ci+1)))
		prev := in
		for d := 0; d < depth; d++ {
			name := fmt.Sprintf("M%d_%d", ci, d)
			op := []string{"tanh", "sin", "cos", "exp"}[d%4]
			b.Add(name, "Math", 1, 1, model.WithOperator(op))
			b.Wire(prev, name, 0)
			prev = name
		}
		out := fmt.Sprintf("Out%d", ci)
		b.Add(out, "Outport", 1, 0, model.WithParam("Port", fmt.Sprint(ci+1)))
		b.Wire(prev, out, 0)
	}
	return compile(t, b.MustBuild())
}

// messyPartitionModel exercises everything that could go wrong across a
// cut: stateful feedback, a data store read/modify/write, diagnosis-
// firing math (log/sqrt on signed inputs), an enable-gated block, a
// monitor and custom checks — then long chains so a 2-way cut exists.
func messyPartitionModel(t *testing.T) *actors.Compiled {
	t.Helper()
	b := model.NewBuilder("PARTMESS")
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InB", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "2"))
	// Feedback accumulator (backward state edge).
	b.Add("Del", "UnitDelay", 1, 1)
	b.Add("Fb", "Sum", 2, 1, model.WithOperator("++"))
	b.Wire("InA", "Fb", 0)
	b.Wire("Del", "Fb", 1)
	b.Wire("Fb", "Del", 0)
	// Diagnosis-firing math on signed stimulus.
	b.Add("Lg", "Math", 1, 1, model.WithOperator("log"))
	b.Wire("InB", "Lg", 0)
	b.Add("Sq", "Sqrt", 1, 1)
	b.Wire("InA", "Sq", 0)
	// Gated gain: enable toggles with the sign of InB.
	b.Add("Pos", "CompareToZero", 1, 1, model.WithOperator(">="))
	b.Wire("InB", "Pos", 0)
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "1.5"), model.WithParam("EnabledBy", "Pos"))
	b.Wire("InA", "G", 0)
	// Data store read/modify/write.
	b.Add("Mem", "DataStoreMemory", 0, 0, model.WithParam("Store", "acc"))
	b.Add("AccR", "DataStoreRead", 0, 1, model.WithParam("Store", "acc"), model.WithOutKind(types.F64))
	b.Add("Mix", "Sum", 2, 1, model.WithOperator("++"))
	b.Wire("AccR", "Mix", 0)
	b.Wire("Sq", "Mix", 1)
	b.Add("AccW", "DataStoreWrite", 1, 0, model.WithParam("Store", "acc"))
	b.Wire("Mix", "AccW", 0)
	// Long transcendental tails give the cutter room on both sides.
	prev := "Fb"
	for d := 0; d < 10; d++ {
		name := fmt.Sprintf("TA%d", d)
		b.Add(name, "Math", 1, 1, model.WithOperator("tanh"))
		b.Wire(prev, name, 0)
		prev = name
	}
	tailA := prev
	prev = "Lg"
	for d := 0; d < 10; d++ {
		name := fmt.Sprintf("TB%d", d)
		b.Add(name, "Math", 1, 1, model.WithOperator("sin"))
		b.Wire(prev, name, 0)
		prev = name
	}
	tailB := prev
	b.Add("Join", "Sum", 3, 1, model.WithOperator("+++"))
	b.Wire(tailA, "Join", 0)
	b.Wire(tailB, "Join", 1)
	b.Wire("G", "Join", 2)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Wire("Join", "Out1", 0)
	b.Add("Out2", "Outport", 1, 0, model.WithParam("Port", "2"))
	b.Wire("Mix", "Out2", 0)
	return compile(t, b.MustBuild())
}

func messyOpts() codegen.Options {
	return codegen.Options{
		Coverage: true,
		Diagnose: true,
		Monitor:  []string{"Fb"},
		Custom: []diagnose.CustomCheck{
			{Actor: "Mix", Name: "range", Kind: diagnose.RangeCheck, Lo: -1e6, Hi: 25},
		},
	}
}

// assertIdenticalResults compares two generated runs field by field,
// including the verbatim diag record stream (stronger than the
// cross-engine oracle, which compares aggregates).
func assertIdenticalResults(t *testing.T, seq, par *simresult.Results) {
	t.Helper()
	assertEquivalent(t, seq, par)
	if len(seq.Diags) != len(par.Diags) {
		t.Fatalf("diag records: sequential %d vs partitioned %d", len(seq.Diags), len(par.Diags))
	}
	for i := range seq.Diags {
		if seq.Diags[i] != par.Diags[i] {
			t.Errorf("diag record %d: sequential %+v vs partitioned %+v", i, seq.Diags[i], par.Diags[i])
		}
	}
	for k, vs := range seq.Monitor {
		vp := par.Monitor[k]
		if len(vs) != len(vp) {
			t.Fatalf("monitor %q: %d vs %d samples", k, len(vs), len(vp))
			continue
		}
		for i := range vs {
			if vs[i] != vp[i] {
				t.Errorf("monitor %q sample %d: %+v vs %+v", k, i, vs[i], vp[i])
			}
		}
	}
}

func buildPair(t *testing.T, c *actors.Compiled, base codegen.Options, set *testcase.Set, k int) (*codegen.Program, *codegen.Program) {
	t.Helper()
	base.TestCases = set
	seq, err := codegen.Generate(c, base)
	if err != nil {
		t.Fatal(err)
	}
	plan := partition.Build(c, k)
	if plan.Usable < 2 {
		t.Fatalf("no usable %d-way cut: %s", k, plan.Declined)
	}
	popts := base
	popts.Partition = plan
	par, err := codegen.Generate(c, popts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Partitions != plan.Usable {
		t.Fatalf("Program.Partitions = %d, want %d", par.Partitions, plan.Usable)
	}
	return seq, par
}

func TestPartitionedEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		c     *actors.Compiled
		opts  codegen.Options
		set   *testcase.Set
		steps int64
		ks    []int
	}{
		{
			name:  "wide",
			c:     wideComputeModel(t, 8, 6),
			opts:  codegen.Options{Coverage: true, Diagnose: true},
			set:   testcase.NewRandomSet(8, 41, -30, 30),
			steps: 3000,
			ks:    []int{2, 4},
		},
		{
			name:  "messy",
			c:     messyPartitionModel(t),
			opts:  messyOpts(),
			set:   testcase.NewRandomSet(2, 43, -40, 40),
			steps: 3000,
			ks:    []int{2},
		},
	}
	for _, tc := range cases {
		tc := tc
		for _, k := range tc.ks {
			k := k
			t.Run(fmt.Sprintf("%s/%dway", tc.name, k), func(t *testing.T) {
				t.Parallel()
				seqProg, parProg := buildPair(t, tc.c, tc.opts, tc.set, k)
				dir := t.TempDir()
				seqRes, err := harness.BuildAndRun(seqProg, dir, harness.RunOptions{Steps: tc.steps})
				if err != nil {
					t.Fatal(err)
				}
				parRes, err := harness.BuildAndRun(parProg, dir, harness.RunOptions{Steps: tc.steps})
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, seqRes, parRes)

				// Third leg: the interpreter agrees with the pipelined build.
				e, err := interp.New(tc.c, interp.Options{Coverage: true, Diagnose: true,
					Monitor: tc.opts.Monitor, Custom: tc.opts.Custom})
				if err != nil {
					t.Fatal(err)
				}
				ir, err := e.Run(tc.set, tc.steps)
				if err != nil {
					t.Fatal(err)
				}
				assertEquivalent(t, ir, parRes)
			})
		}
	}
}

// Batch lanes and partitioned builds compose: every lane of a
// partitioned binary runs through the pipelined runSim and mergeDiags,
// so runBatch must match the sequential binary lane for lane — hash,
// diagnosis aggregates, the verbatim record stream and monitors — and
// each lane must match a one-shot run with its seed. The batch's
// coverage must be the OR of the one-shot bitmaps; the 1-step horizon
// leaves the lanes covering different points, so that check binds.
func TestPartitionedBatchLanes(t *testing.T) {
	c := messyPartitionModel(t)
	set := testcase.NewRandomSet(2, 47, -40, 40)
	seqProg, parProg := buildPair(t, c, messyOpts(), set, 2)
	dir := t.TempDir()
	seqBin, _, err := harness.Build(seqProg, dir)
	if err != nil {
		t.Fatal(err)
	}
	parBin, _, err := harness.Build(parProg, dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{0, 1, 2, 0xdeadbeef}
	spread, diags := false, false
	for _, steps := range []int64{1, 1500} {
		seqLanes, seqCov, err := harness.RunBatch(t.Context(), seqBin, harness.RunOptions{Steps: steps}, seeds)
		if err != nil {
			t.Fatal(err)
		}
		parLanes, parCov, err := harness.RunBatch(t.Context(), parBin, harness.RunOptions{Steps: steps}, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqLanes) != len(seeds) || len(parLanes) != len(seeds) {
			t.Fatalf("lane counts: %d vs %d, want %d", len(seqLanes), len(parLanes), len(seeds))
		}
		merged := seqProg.Layout.NewRaw()
		var laneCov []*coverage.Raw
		for i, seed := range seeds {
			assertIdenticalResults(t, seqLanes[i], parLanes[i])
			if !reflect.DeepEqual(seqLanes[i].DiagCounts, parLanes[i].DiagCounts) {
				t.Errorf("%d steps, lane %d diag counts: %v vs %v", steps, i, seqLanes[i].DiagCounts, parLanes[i].DiagCounts)
			}
			if !reflect.DeepEqual(seqLanes[i].FirstDetect, parLanes[i].FirstDetect) {
				t.Errorf("%d steps, lane %d first detect: %v vs %v", steps, i, seqLanes[i].FirstDetect, parLanes[i].FirstDetect)
			}
			diags = diags || len(parLanes[i].Diags) > 0
			one, err := harness.Run(seqBin, harness.RunOptions{Steps: steps, SeedXor: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(one.Coverage); err != nil {
				t.Fatal(err)
			}
			laneCov = append(laneCov, one.Coverage)
			one.Coverage = nil
			assertIdenticalResults(t, one, parLanes[i])
		}
		if seqCov == nil || parCov == nil {
			t.Fatalf("batch coverage missing: sequential %v, partitioned %v", seqCov != nil, parCov != nil)
		}
		if !sameBitmaps(seqCov, parCov) {
			t.Errorf("%d steps, batch coverage: sequential %+v vs partitioned %+v", steps, seqCov, parCov)
		}
		if !sameBitmaps(parCov, merged) {
			t.Errorf("%d steps, batch coverage %+v is not the OR of the one-shot runs %+v", steps, parCov, merged)
		}
		for _, lc := range laneCov {
			spread = spread || !sameBitmaps(lc, merged)
		}
	}
	if !diags {
		t.Error("the messy model fired no diagnoses: the record-stream comparison is vacuous")
	}
	if !spread {
		t.Error("every lane covered the same points: the OR-merge comparison is vacuous")
	}
}

// sameBitmaps reports whether two coverage records set the same points.
func sameBitmaps(a, b *coverage.Raw) bool {
	return bytes.Equal(a.Actor, b.Actor) && bytes.Equal(a.Cond, b.Cond) &&
		bytes.Equal(a.Dec, b.Dec) && bytes.Equal(a.MCDC, b.MCDC)
}

// A usable partition plan must change the build-cache key; a declined
// one must not (it emits sequential source and may share the artifact).
func TestPartitionHashDistinct(t *testing.T) {
	c := wideComputeModel(t, 8, 6)
	set := testcase.NewRandomSet(8, 53, -10, 10)
	base := codegen.Options{Coverage: true, TestCases: set}
	seq, err := codegen.Generate(c, base)
	if err != nil {
		t.Fatal(err)
	}
	popts := base
	popts.Partition = partition.Build(c, 2)
	par, err := codegen.Generate(c, popts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Hash() == par.Hash() {
		t.Fatal("2-way and 1-way builds share a hash")
	}
	dopts := base
	dopts.Partition = &partition.Plan{Requested: 4, Usable: 1, Declined: "test"}
	dec, err := codegen.Generate(c, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hash() != seq.Hash() {
		t.Fatal("declined partition plan must share the sequential hash")
	}
	if dec.Source != seq.Source {
		t.Fatal("declined partition plan must emit sequential source")
	}
}

// StopOnDiag runs decline partitioning at generation time.
func TestPartitionStopOnDiagDeclines(t *testing.T) {
	c := messyPartitionModel(t)
	set := testcase.NewRandomSet(2, 59, -40, 40)
	opts := messyOpts()
	opts.TestCases = set
	opts.StopOnDiag = diagnose.DomainError
	opts.Partition = partition.Build(c, 2)
	p, err := codegen.Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partitions != 1 {
		t.Fatalf("StopOnDiag build got %d partitions, want sequential", p.Partitions)
	}
	if strings.Contains(p.Source, "partStep0") {
		t.Fatal("StopOnDiag build emitted pipelined code")
	}
}

// The emitted pipelined source carries the expected shape.
func TestPartitionedSourceShape(t *testing.T) {
	c := wideComputeModel(t, 8, 6)
	set := testcase.NewRandomSet(8, 61, -10, 10)
	opts := codegen.Options{Coverage: true, Diagnose: true, TestCases: set}
	opts.Partition = partition.Build(c, 2)
	p, err := codegen.Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"const partitionCount = 2",
		"type pframe struct",
		"func fillStimulus(f *pframe)",
		"func partStep0(f *pframe)",
		"func partStep1(f *pframe)",
		"func mergeDiags()",
		"var diagPos",
		"emitHeartbeatPartial",
		"stageCh[0] <- f",
	} {
		if !strings.Contains(p.Source, want) {
			t.Errorf("partitioned source is missing %q", want)
		}
	}

	// runSim is the only step loop, sequential or pipelined: batch lanes
	// run back to back through it, with no per-lane state copies.
	opts.Partition = nil
	seq, err := codegen.Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name, src, step string
	}{
		{"sequential", seq.Source, "modelExe("},
		{"partitioned", p.Source, "partStep("},
	} {
		for _, gone := range []string{"laneState", "laneSave", "laneLoad", "batchChunk", "seqFrame"} {
			if strings.Contains(b.src, gone) {
				t.Errorf("%s source still carries %q", b.name, gone)
			}
		}
		runSim := funcSource(t, b.src, "runSim")
		calls := strings.Count(b.src, b.step) - strings.Count(b.src, "func "+b.step)
		if inRunSim := strings.Count(runSim, b.step); calls == 0 || inRunSim != calls {
			t.Errorf("%s source: %d %s call sites, %d of them in runSim", b.name, calls, b.step, inRunSim)
		}
		batch := funcSource(t, b.src, "runBatch")
		if !strings.Contains(batch, "runSim(") || !strings.Contains(batch, "modelReset()") {
			t.Errorf("%s runBatch does not run its lanes through modelReset + runSim:\n%s", b.name, batch)
		}
	}
	if strings.Contains(p.Source, "func modelExe(") {
		t.Error("partitioned source still emits a modelExe")
	}
}

// funcSource returns the text of the top-level function name in src.
func funcSource(t *testing.T, src, name string) string {
	t.Helper()
	start := strings.Index(src, "\nfunc "+name+"(")
	if start < 0 {
		t.Fatalf("generated source has no func %s", name)
	}
	end := strings.Index(src[start:], "\n}\n")
	if end < 0 {
		t.Fatalf("func %s is not terminated", name)
	}
	return src[start : start+end+3]
}
