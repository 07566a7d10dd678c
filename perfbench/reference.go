package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"accmos"
	"accmos/internal/coverage"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
)

// knownDefects names the models whose optimized (O1 and above) outputs are
// known to differ from the O0 reference. Their mismatches still count as
// failed jobs in ok_share and are printed; they only keep the run's
// "correct" flag from flipping on a defect that is already on record.
// LEDLC: O1 constant folding decides the purity of zero-input sources by
// probing two steps, so its PulseGenerator folds to a constant (ROADMAP,
// "Correctness first").
var knownDefects = map[string]string{
	"LEDLC": "O1 constant folding of the PulseGenerator source",
}

// reference is the O0 in-process result a job is held to. Coverage and
// the diagnosis counts are set only for the interpreter reference.
type reference struct {
	Engine     string           `json:"engine"`
	Steps      int64            `json:"steps"`
	OutputHash uint64           `json:"outputHash"`
	Coverage   *coverage.Raw    `json:"coverage,omitempty"`
	DiagTotal  int64            `json:"diagTotal"`
	DiagCounts map[string]int64 `json:"diagCounts,omitempty"`
}

// refJob identifies one reference computation.
type refJob struct {
	model *benchModel
	tcs   *accmos.TestCases
	steps int64
	// interp selects the interpreter (coverage and diagnosis compared too)
	// over the rapid engine (output hash and step count only).
	interp bool
}

// key is the disk-cache key: the model document, the stimulus, the engine
// and the horizon.
func (j refJob) key() string {
	h := sha256.New()
	h.Write(j.model.doc)
	tc, _ := json.Marshal(j.tcs)
	h.Write(tc)
	fmt.Fprintf(h, "|%d|%v", j.steps, j.interp)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// compute runs the job on the unoptimized model.
func (j refJob) compute() (*reference, error) {
	opts := accmos.Options{OptLevel: accmos.OptO0, Steps: j.steps, TestCases: j.tcs}
	if j.interp {
		opts.Coverage, opts.Diagnose = true, true
		r, err := accmos.Interpret(j.model.m, opts)
		if err != nil {
			return nil, fmt.Errorf("O0 interpreter reference for %s: %w", j.model.name, err)
		}
		return &reference{Engine: "interp", Steps: r.Steps, OutputHash: r.OutputHash,
			Coverage: r.Results.Coverage, DiagTotal: r.DiagTotal, DiagCounts: r.DiagCounts}, nil
	}
	r, err := accmos.RapidAccelerate(j.model.m, opts)
	if err != nil {
		return nil, fmt.Errorf("O0 rapid reference for %s: %w", j.model.name, err)
	}
	return &reference{Engine: "rapid", Steps: r.Steps, OutputHash: r.OutputHash}, nil
}

// references computes jobs on up to two goroutines (never more than the
// host's CPUs), outside every timed region. With cacheDir set, results
// are read from and written to it, keyed by refJob.key.
func references(jobs []refJob, cacheDir string) ([]*reference, error) {
	out := make([]*reference, len(jobs))
	errs := make([]error, len(jobs))
	workers := min(2, runtime.NumCPU(), len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = cachedRef(jobs[i], cacheDir)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func cachedRef(j refJob, cacheDir string) (*reference, error) {
	if cacheDir == "" {
		return j.compute()
	}
	path := filepath.Join(cacheDir, j.key()+".json")
	if b, err := os.ReadFile(path); err == nil {
		var r reference
		if json.Unmarshal(b, &r) == nil {
			return &r, nil
		}
	}
	r, err := j.compute()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := writeJSON(tmp, r); err != nil {
		return nil, err
	}
	return r, os.Rename(tmp, path)
}

// checker counts jobs held to a reference and records every mismatch.
type checker struct {
	attempted, failed int
	unexpected        int            // failures outside knownDefects
	mismatches        []string       // distinct mismatch lines, first-seen order
	seen              map[string]int // occurrences per mismatch line
}

// check compares one job with its reference. label names the cell
// (workload, model, seed, lane); model selects the known-defect entry.
func (c *checker) check(label, model string, got *simresult.Results, want *reference) {
	c.attempted++
	diffs := compare(got, want)
	if len(diffs) == 0 {
		return
	}
	c.failed++
	note := "UNEXPECTED"
	if why, ok := knownDefects[model]; ok {
		note = "known defect: " + why
	} else {
		c.unexpected++
	}
	msg := fmt.Sprintf("%s vs O0 %s: %v (%s)", label, want.Engine, diffs, note)
	if c.seen == nil {
		c.seen = map[string]int{}
	}
	if c.seen[msg] == 0 {
		c.mismatches = append(c.mismatches, msg)
	}
	c.seen[msg]++
}

// report lists each distinct mismatch once, with how often it occurred.
func (c *checker) report() []string {
	out := make([]string, len(c.mismatches))
	for i, m := range c.mismatches {
		out[i] = fmt.Sprintf("%dx %s", c.seen[m], m)
	}
	return out
}

// correct reports that every failure is a known defect.
func (c *checker) correct() bool { return c.unexpected == 0 }

// okShare is the fraction of attempted jobs that matched the reference.
func (c *checker) okShare() float64 {
	return float64(c.attempted-c.failed) / float64(c.attempted)
}

// compare lists the fields in which got differs from want.
func compare(got *simresult.Results, want *reference) []string {
	var d []string
	if got.Steps != want.Steps {
		d = append(d, fmt.Sprintf("steps %d != %d", got.Steps, want.Steps))
	}
	if got.OutputHash != want.OutputHash {
		d = append(d, fmt.Sprintf("outputHash %d != %d", got.OutputHash, want.OutputHash))
	}
	if want.Engine != "interp" {
		return d
	}
	if !sameCoverage(got.Coverage, want.Coverage) {
		d = append(d, "coverage bitmaps differ")
	}
	if got.DiagTotal != want.DiagTotal {
		d = append(d, fmt.Sprintf("diagTotal %d != %d", got.DiagTotal, want.DiagTotal))
	} else if !reflect.DeepEqual(nonEmpty(got.DiagCounts), nonEmpty(want.DiagCounts)) {
		d = append(d, "diagCounts differ")
	}
	return d
}

func sameCoverage(a, b *coverage.Raw) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.Actor, b.Actor) && bytes.Equal(a.Cond, b.Cond) &&
		bytes.Equal(a.Dec, b.Dec) && bytes.Equal(a.MCDC, b.MCDC)
}

func nonEmpty(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	return m
}

// xorSuite copies tcs with every uniform source seed XORed by xor: the
// perturbation a sweep lane's seedXor applies inside the generated
// binary, so the reference can replay any lane as a standalone run.
func xorSuite(tcs *accmos.TestCases, xor uint64) *accmos.TestCases {
	out := &accmos.TestCases{Sources: append([]testcase.Source(nil), tcs.Sources...)}
	for i := range out.Sources {
		if out.Sources[i].Kind == testcase.Uniform {
			out.Sources[i].Seed ^= xor
		}
	}
	return out
}
