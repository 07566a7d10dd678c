// Package harness compiles and executes AccMoS-generated simulation
// programs: it writes the generated source, invokes the Go compiler (the
// paper's "compile and execute the code" step), runs the binary, and
// decodes the JSON results into the shared simresult schema.
//
// Every execution path is context-aware: RunContext kills a wedged or
// runaway generated binary (its whole process group, so grandchildren die
// too) when the context is cancelled or the per-run Timeout elapses, and
// reports the deadline in the error instead of hanging the caller.
package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/obs"
	"accmos/internal/simresult"
)

// Build compiles a generated program into a binary under dir (created if
// needed) and returns the binary path plus the compile duration.
func Build(p *codegen.Program, dir string) (string, time.Duration, error) {
	return BuildContext(context.Background(), p, dir, nil)
}

// BuildTraced is Build recording a "compile" span on the tracer (nil ok).
func BuildTraced(p *codegen.Program, dir string, tr *obs.Tracer) (string, time.Duration, error) {
	return BuildContext(context.Background(), p, dir, tr)
}

// BuildContext is BuildTraced bounded by a context: cancelling ctx kills
// an in-flight `go build` instead of letting the compile run to
// completion after the caller has given up on the result.
func BuildContext(ctx context.Context, p *codegen.Program, dir string, tr *obs.Tracer) (string, time.Duration, error) {
	defer tr.Start("compile").End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("harness: %w", err)
	}
	srcPath := srcPathFor(p, dir)
	if err := os.WriteFile(srcPath, []byte(p.Source), 0o644); err != nil {
		return "", 0, fmt.Errorf("harness: writing source: %w", err)
	}
	binPath := binPathFor(p, dir)
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binPath, srcPath)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOFLAGS=-mod=mod")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return "", 0, fmt.Errorf("harness: compiling generated program for %s: %w", p.Model, ctxErr)
		}
		return "", 0, fmt.Errorf("harness: compiling generated program: %v\n%s", err, annotate(p.Source, stderr.String()))
	}
	return binPath, time.Since(start), nil
}

// artifactTag names a program's on-disk artifacts. It carries a short
// content hash: distinct models whose names sanitize identically (m.1 vs
// m_1) get distinct binaries, and two builds sharing one WorkDir never
// race on a common main.go.
// Optimized programs additionally carry their opt level, so an -O0 and an
// -O1 build of one model are tell-apart on disk and can never serve each
// other's binary even if a hash were ever truncated into collision.
func artifactTag(p *codegen.Program) string {
	if p.Opt != "" {
		return "sim_" + sanitizeFile(p.Model) + "_" + sanitizeFile(p.Opt) + "_" + shortHash(p)
	}
	return "sim_" + sanitizeFile(p.Model) + "_" + shortHash(p)
}

// srcPathFor returns the generated-source path a build under dir uses.
func srcPathFor(p *codegen.Program, dir string) string {
	return filepath.Join(dir, artifactTag(p)+".go")
}

// binPathFor returns the binary path a build under dir produces.
func binPathFor(p *codegen.Program, dir string) string {
	return filepath.Join(dir, artifactTag(p))
}

// shortHash is the artifact-name fragment of a program's content hash.
func shortHash(p *codegen.Program) string {
	h := p.Hash()
	if len(h) > 10 {
		h = h[:10]
	}
	return h
}

// sanitizeFile keeps binary names filesystem-safe.
func sanitizeFile(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// annotate prefixes compiler errors with the offending source lines so
// generation bugs are debuggable from test failures.
func annotate(src, errs string) string {
	if len(errs) > 4096 {
		errs = errs[:4096] + "\n... (truncated)"
	}
	lines := splitLines(src)
	out := errs + "\n--- generated source (first 120 lines) ---\n"
	for i, l := range lines {
		if i >= 120 {
			out += "...\n"
			break
		}
		out += fmt.Sprintf("%4d| %s\n", i+1, l)
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// RunOptions selects the simulated span for one execution.
type RunOptions struct {
	// Steps bounds the simulated step count (-steps). With Budget also
	// set, the run stops at whichever bound is reached first; Steps <= 0
	// under a Budget means budget-only.
	Steps  int64
	Budget time.Duration // wall-clock budget (-budget-ms)
	// SeedXor perturbs the program's embedded uniform test-case seeds
	// (-seed-xor), so one binary sweeps many random suites.
	SeedXor uint64

	// Model and Suite label this run in errors: in a multi-model,
	// multi-suite workload (a parallel sweep, or the accmosd daemon
	// serving many jobs) a bare binary path does not say which model or
	// which sweep suite died. Model is the model name; Suite is the
	// 1-based suite index within a sweep (0 outside one). Both are
	// optional and purely diagnostic.
	Model string
	Suite int

	// RunID is the run's correlation ID (the job ID under accmosd, a
	// generated run ID for CLI runs). The harness stamps it onto every
	// decoded heartbeat (Snapshot.Corr) and onto run errors, so logs,
	// NDJSON events and failures for one run are joinable. Optional.
	RunID string

	// Timeout kills the binary (and its process group) when it runs
	// longer than this wall clock span — the guard against a wedged or
	// runaway generated program. Zero means no deadline.
	Timeout time.Duration

	// Heartbeat enables the binary's NDJSON progress stream on stderr at
	// this interval (-heartbeat-ms). Zero leaves it off — the default.
	Heartbeat time.Duration
	// Progress receives each heartbeat snapshot as it is decoded.
	Progress func(obs.Snapshot)
	// Trace records a "run" span when non-nil.
	Trace *obs.Tracer
}

// label renders the run's error identity: the model name and suite tag
// when the caller supplied them, always ending with the binary path.
// "CSEV suite 3 (/tmp/.../sim_CSEV_ab12cd34)" or just the path.
func (o *RunOptions) label(binPath string) string {
	var sb strings.Builder
	if o.Model != "" {
		sb.WriteString(o.Model)
		sb.WriteByte(' ')
	}
	if o.Suite > 0 {
		fmt.Fprintf(&sb, "suite %d ", o.Suite)
	}
	if sb.Len() > 0 {
		fmt.Fprintf(&sb, "(%s)", binPath)
		return sb.String()
	}
	return binPath
}

// errTailLines bounds how many non-heartbeat stderr lines a run error
// carries — enough to diagnose a crash without drowning the error in the
// progress stream or a long panic trace.
const errTailLines = 20

// clampMS renders a positive duration in the whole milliseconds the
// generated program's flag/request contract speaks, clamping
// sub-millisecond spans up to 1: emitting 0 would read as "disabled"
// on the other side (the PR 2 -budget-ms=0 regression class). One
// helper for every path — spawn flags and serve frames alike — so the
// clamp can't drift between them again.
func clampMS(d time.Duration) int64 {
	ms := d.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	return ms
}

// Run executes a built simulation binary and decodes its results. The
// binary's stderr is consumed as a line stream: heartbeat records are
// decoded into progress snapshots (delivered to opts.Progress and
// collected as the result Timeline); everything else is treated as
// diagnostics, of which the last errTailLines accompany a run error.
func Run(binPath string, opts RunOptions) (*simresult.Results, error) {
	return RunContext(context.Background(), binPath, opts)
}

// RunContext is Run bounded by a context: when ctx is cancelled — or the
// RunOptions.Timeout deadline passes — the binary's process group is
// killed and the returned error names the reason instead of blocking
// until the process chooses to exit.
func RunContext(ctx context.Context, binPath string, opts RunOptions) (*simresult.Results, error) {
	defer opts.Trace.Start("run").End()
	args := []string{}
	if opts.SeedXor != 0 {
		args = append(args, fmt.Sprintf("-seed-xor=%d", opts.SeedXor))
	}
	if opts.Heartbeat > 0 {
		args = append(args, fmt.Sprintf("-heartbeat-ms=%d", clampMS(opts.Heartbeat)))
	}
	if opts.Budget > 0 {
		args = append(args, fmt.Sprintf("-budget-ms=%d", clampMS(opts.Budget)))
		// An explicit step count rides along with the budget: the run
		// stops at whichever bound is reached first — the same semantics
		// a serve-mode request carries, so pooled and spawn-per-run
		// execution of a steps+budget run agree.
		if opts.Steps > 0 {
			args = append(args, fmt.Sprintf("-steps=%d", opts.Steps))
		}
	} else {
		args = append(args, fmt.Sprintf("-steps=%d", opts.Steps))
	}
	var res simresult.Results
	timeline, err := execDecode(ctx, binPath, args, opts, &res)
	if err != nil {
		return nil, err
	}
	res.Timeline = timeline
	return &res, nil
}

// batchDoc consumes the stdout of a -batch-seeds invocation: a header
// line naming the lane count and carrying the batch's OR-merged
// coverage, then one raw result line per lane in request seed order.
// Line-splitting keeps the harness from scanning one giant JSON value;
// the raw lanes decode in parallel afterwards.
type batchDoc struct {
	want  int
	lanes [][]byte
	cov   *coverage.Raw
}

func (b *batchDoc) consume(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading batch header: %w", err)
	}
	var hdr struct {
		Marker    int           `json:"accmosBatch"`
		LaneCount int           `json:"laneCount"`
		Coverage  *coverage.Raw `json:"coverage"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return fmt.Errorf("decoding batch header: %w", err)
	}
	if hdr.Marker != 1 || hdr.LaneCount != b.want {
		return fmt.Errorf("batch document mismatch (marker %d, %d lanes for %d seeds)",
			hdr.Marker, hdr.LaneCount, b.want)
	}
	b.cov = hdr.Coverage
	b.lanes = make([][]byte, 0, hdr.LaneCount)
	for i := 0; i < hdr.LaneCount; i++ {
		lane, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("reading batch lane %d of %d: %w", i+1, hdr.LaneCount, err)
		}
		b.lanes = append(b.lanes, lane)
	}
	return nil
}

// seedList renders seed xors as the generated -batch-seeds flag value.
func seedList(xs []uint64) string {
	var sb strings.Builder
	for i, x := range xs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", x)
	}
	return sb.String()
}

// RunBatch executes one spawn of the built binary in batched lane mode:
// one lane per seedXor, each run to opts.Steps back to back in the one
// process, returning the per-lane results in seed order plus the
// batch's OR-merged coverage (nil when coverage is off). Batch runs are
// step-bounded (opts.Budget must be zero); Timeout bounds the whole
// batch. Per-lane ExecNanos is the lane's own measured run time — the
// lane results are bit-identical to sequential runs in everything the
// equivalence oracle compares (hash, diagnostics), timing aside, and
// the merged coverage equals the OR of the sequential runs' bitmaps.
// Heartbeats count steps over all lanes so far, and the batch emits
// exactly one final heartbeat, after its last lane.
func RunBatch(ctx context.Context, binPath string, opts RunOptions, seedXors []uint64) ([]*simresult.Results, *coverage.Raw, error) {
	defer opts.Trace.Start("run").End()
	if len(seedXors) == 0 {
		return nil, nil, fmt.Errorf("harness: RunBatch needs at least one seed")
	}
	if opts.Budget > 0 {
		return nil, nil, fmt.Errorf("harness: RunBatch is step-bounded; Budget is unsupported")
	}
	args := []string{
		"-batch-seeds=" + seedList(seedXors),
		fmt.Sprintf("-steps=%d", opts.Steps),
	}
	if opts.Heartbeat > 0 {
		args = append(args, fmt.Sprintf("-heartbeat-ms=%d", clampMS(opts.Heartbeat)))
	}
	doc := batchDoc{want: len(seedXors)}
	if _, err := execDecode(ctx, binPath, args, opts, &doc); err != nil {
		return nil, nil, err
	}
	out, i, err := decodeLanes(doc.lanes)
	if err != nil {
		return nil, nil, &RunError{
			Model: opts.Model, Suite: opts.Suite, Bin: binPath, Corr: opts.RunID,
			Reason: ReasonDecode, ExitCode: 0, Err: err,
			msg: fmt.Sprintf("harness: running %s: decoding batch lane %d: %v", opts.label(binPath), i, err),
		}
	}
	return out, doc.cov, nil
}

// decodeLanes unmarshals the per-lane result documents of a batch run,
// fanned out across CPUs — per-lane decode is the dominant harness-side
// cost of a short-horizon batch, and each lane is independent. Returns
// the index of the first lane that failed to decode alongside its error.
func decodeLanes(lanes [][]byte) ([]*simresult.Results, int, error) {
	out := make([]*simresult.Results, len(lanes))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(lanes) {
		workers = len(lanes)
	}
	var (
		next   atomic.Int64
		badIdx atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
	)
	badIdx.Store(int64(len(lanes)))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lanes) || int64(i) > badIdx.Load() {
					return
				}
				var r simresult.Results
				if simresult.DecodeGenerated(lanes[i], &r) {
					out[i] = &r
					continue
				}
				if err := json.Unmarshal(lanes[i], &r); err != nil {
					mu.Lock()
					if int64(i) < badIdx.Load() {
						badIdx.Store(int64(i))
						first = err
					}
					mu.Unlock()
					return
				}
				out[i] = &r
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, int(badIdx.Load()), first
	}
	return out, 0, nil
}

// execDecode runs one spawn of a built binary: it starts the process
// (own process group), drains stderr into the heartbeat timeline and
// diagnostic tail, streams the stdout document into out, and converts
// every failure mode into a structured *RunError. Shared by RunContext
// (simresult document) and RunBatch (batch lane document).
func execDecode(ctx context.Context, binPath string, args []string, opts RunOptions, out any) ([]obs.Snapshot, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: running %s: %w", opts.label(binPath), err)
	}
	cmd := exec.Command(binPath, args...)
	setProcGroup(cmd)
	stdoutPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("harness: starting %s: %w", opts.label(binPath), err)
	}
	// Watch for cancellation while the binary runs; killing the process
	// group closes both pipes, so the drain and decode below always reach
	// EOF and cmd.Wait reaps the child.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			killProcGroup(cmd)
		case <-watchDone:
		}
	}()
	// Drain stderr concurrently while the result document streams off
	// stdout — decoding incrementally instead of buffering the whole
	// stdout (monitor-heavy results can be large).
	type drained struct {
		timeline []obs.Snapshot
		tail     []string
		scanErr  error
	}
	drainCh := make(chan drained, 1)
	go func() {
		timeline, tail, scanErr := drainStderr(stderrPipe, opts.RunID, opts.Progress)
		drainCh <- drained{timeline, tail, scanErr}
	}()
	var decErr error
	var decOffset int64
	if sc, ok := out.(interface{ consume(io.Reader) error }); ok {
		decErr = sc.consume(stdoutPipe)
	} else {
		dec := json.NewDecoder(stdoutPipe)
		decErr = dec.Decode(out)
		decOffset = dec.InputOffset()
	}
	io.Copy(io.Discard, stdoutPipe)
	d := <-drainCh
	waitErr := cmd.Wait()
	close(watchDone)
	tail := d.tail
	if d.scanErr != nil {
		tail = append(tail, fmt.Sprintf("harness: stderr scan aborted (diagnostic tail truncated): %v", d.scanErr))
	}
	if waitErr != nil {
		exitCode := -1
		if cmd.ProcessState != nil {
			exitCode = cmd.ProcessState.ExitCode()
		}
		fail := func(reason string, cause error, msg string) *RunError {
			return &RunError{
				Model: opts.Model, Suite: opts.Suite, Bin: binPath, Corr: opts.RunID,
				Reason: reason, ExitCode: exitCode,
				StderrTail: tail, Heartbeats: heartbeatTail(d.timeline),
				Err: cause, msg: msg,
			}
		}
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			deadline := "context deadline"
			e := fail(ReasonTimeout, context.DeadlineExceeded, "")
			if opts.Timeout > 0 {
				deadline = fmt.Sprintf("%v timeout", opts.Timeout)
				e.Timeout = opts.Timeout
			}
			e.msg = fmt.Sprintf("harness: running %s: killed after exceeding the %s: %v\n%s",
				opts.label(binPath), deadline, waitErr, strings.Join(tail, "\n"))
			return nil, e
		case ctx.Err() != nil:
			return nil, fail(ReasonCanceled, context.Canceled,
				fmt.Sprintf("harness: running %s: killed: %v\n%s",
					opts.label(binPath), context.Canceled, strings.Join(tail, "\n")))
		}
		return nil, fail(ReasonExit, waitErr,
			fmt.Sprintf("harness: running %s: %v\n%s", opts.label(binPath), waitErr, strings.Join(tail, "\n")))
	}
	if decErr != nil {
		return nil, &RunError{
			Model: opts.Model, Suite: opts.Suite, Bin: binPath, Corr: opts.RunID,
			Reason: ReasonDecode, ExitCode: 0,
			StderrTail: tail, Heartbeats: heartbeatTail(d.timeline), Err: decErr,
			msg: fmt.Sprintf("harness: decoding results at byte offset %d: %v", decOffset, decErr),
		}
	}
	return d.timeline, nil
}

// drainStderr splits a running binary's stderr into the heartbeat
// timeline and the tail of ordinary diagnostic lines, stamping every
// decoded snapshot with the run's correlation ID. It reads until EOF
// (i.e. process exit), so callers may cmd.Wait afterwards: even when the
// line scanner aborts (a diagnostic line beyond its 1 MiB cap), the rest
// of the pipe is consumed so the child can never block on a full stderr
// buffer, and the scan error is returned instead of being swallowed.
func drainStderr(r io.Reader, corr string, progress func(obs.Snapshot)) (timeline []obs.Snapshot, tail []string, scanErr error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if snap, ok := obs.ParseHeartbeat(line); ok {
			snap.Corr = corr
			timeline = append(timeline, snap)
			if progress != nil {
				progress(snap)
			}
			continue
		}
		tail = append(tail, string(line))
		if len(tail) > errTailLines {
			tail = tail[len(tail)-errTailLines:]
		}
	}
	if scanErr = sc.Err(); scanErr != nil {
		io.Copy(io.Discard, r)
	}
	return timeline, tail, scanErr
}

// BuildAndRun is the one-shot pipeline: compile, execute, and record the
// compile time in the results.
func BuildAndRun(p *codegen.Program, dir string, opts RunOptions) (*simresult.Results, error) {
	return BuildAndRunContext(context.Background(), p, dir, opts)
}

// BuildAndRunContext is BuildAndRun with both phases bounded by ctx:
// cancellation aborts an in-flight compile as well as the run.
func BuildAndRunContext(ctx context.Context, p *codegen.Program, dir string, opts RunOptions) (*simresult.Results, error) {
	bin, compileTime, err := BuildContext(ctx, p, dir, opts.Trace)
	if err != nil {
		return nil, err
	}
	res, err := RunContext(ctx, bin, opts)
	if err != nil {
		return nil, err
	}
	res.CompileNanos = compileTime.Nanoseconds()
	return res, nil
}
