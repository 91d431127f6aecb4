// Package inject drives fault-injection campaigns following the paper's
// Section IV-A methodology: every flip-flop of the CPU receives transient
// (soft), stuck-at-0 and stuck-at-1 faults at randomly chosen points in
// equally sized intervals of each benchmark's run, one single fault per
// experiment, and the lockstep checker's view of each experiment is logged.
//
// The paper injected 10 million faults over two weeks on a server cluster;
// campaign size here is a Config knob with the same structure (full flop
// coverage x 3 fault kinds x intervals x benchmarks) so the methodology is
// identical and only the sample count scales.
//
// Campaigns are executed in two phases. First the whole experiment plan is
// enumerated (see Plan): every injection's coordinates and cycle are fixed
// up front from Config.Seed alone. Then the plan is sharded across a pool
// of workers, each experiment replaying against a read-only per-kernel
// golden run, and records land at their plan index — so the dataset is
// bit-identical for any worker count, including a serial run.
//
// Long campaigns are crash-safe: with Config.CheckpointPath set the run
// periodically persists an atomic, versioned checkpoint of the completed
// plan spans, and Config.Resume restores it and re-executes only the
// remaining plan indices — the final dataset is byte-identical to an
// uninterrupted run (see checkpoint.go). Workers contain faults in the
// harness itself: a panicking experiment is retried on fresh scratch and
// then recorded as a Failed row, and an optional per-experiment watchdog
// budget bounds a stuck experiment, so one poisoned experiment cannot
// kill a multi-week campaign.
package inject

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
	"lockstep/internal/workload"
)

// ConfigError reports an invalid campaign Config. Field names the
// offending Config field and Reason explains the problem, so every
// consumer — the campaign CLIs and the lockstep-serve API — can report
// the same field the same way (the CLI prints Error(), the server echoes
// Field in its structured JSON error).
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("inject: config %s: %s", e.Field, e.Reason)
}

// ErrCanceled is returned by Run/RunStats when the campaign was stopped
// via Config.Cancel before finishing. The partial results are not
// returned as a dataset; with checkpointing enabled they are persisted
// in the final checkpoint, and a Resume run completes the campaign with
// a byte-identical dataset.
var ErrCanceled = errors.New("inject: campaign canceled")

// Config sizes a campaign.
type Config struct {
	// Kernels selects benchmark kernels by name; empty means the full
	// suite.
	Kernels []string
	// RunCycles is the fault-free horizon of each kernel's golden run;
	// injections happen anywhere in it and manifestation is observed until
	// its end (the benchmark "runs to completion").
	RunCycles int
	// Intervals divides the run into equally sized injection intervals
	// (the paper uses 64).
	Intervals int
	// InjectionsPerFlopKind is how many experiments each (flop, kind) pair
	// receives per kernel, each in a distinct randomly chosen interval.
	InjectionsPerFlopKind int
	// FlopStride samples every Nth flop (1 = every flip-flop).
	FlopStride int
	// Kinds selects fault kinds; empty means soft + stuck-at-0 + stuck-at-1.
	Kinds []lockstep.FaultKind
	// StopLatency overrides the checker stop window (cycles of DSR
	// accumulation after first divergence); 0 uses lockstep.StopLatency.
	StopLatency int
	// Seed makes the campaign reproducible.
	Seed int64
	// Mode selects the lockstep organization experiments run under: DCLS
	// (the zero value, the paper's baseline), temporal-slip ("slip:N",
	// the redundant CPU staggered N cycles behind the main) or TMR
	// (majority voter with forward recovery). The injection plan is
	// mode-independent — the same (flop, kind, cycle) schedule runs under
	// every mode — so mode is a pure campaign axis; it participates in
	// the fingerprint, the checkpoint and the dataset rows.
	Mode lockstep.Mode
	// Workers is the number of parallel experiment executors; 0 or
	// negative means runtime.NumCPU(). The resulting dataset is identical
	// for every worker count (the plan fixes each experiment's schedule
	// and records merge back in plan order).
	Workers int
	// Legacy runs experiments on the original dual-CPU simulation instead
	// of the golden-trace replay path. Roughly half the throughput; kept
	// as the differential-testing oracle (outcomes are bit-identical to
	// the replay path, which the test suite asserts).
	Legacy bool
	// NoPrune disables static fault-equivalence pruning, simulating every
	// experiment even when the golden run's liveness analysis proves its
	// outcome. The dataset is byte-identical either way — NoPrune is the
	// differential-oracle escape hatch (and the slow path), not a
	// different campaign. It participates in the resume fingerprint so a
	// checkpoint is never silently continued under the other setting.
	//
	// With pruning on, a deterministic seeded sample of the pruned sites
	// (~1/64, at least one whenever anything was pruned) is still
	// simulated and compared against the static prediction; a mismatch
	// aborts the campaign with an error naming the (flop, cycle), so an
	// unsound analysis can never quietly ship a dataset.
	NoPrune bool
	// Progress, if non-nil, receives (done, total) experiment counts for
	// the experiments this run executes (a resumed campaign reports the
	// remaining work, not the restored records). Calls are serialized and
	// done is strictly increasing 1..total, even when experiments complete
	// out of order across workers.
	Progress func(done, total int)

	// CheckpointPath, when non-empty, makes the campaign periodically
	// persist an atomic resumable checkpoint (completed plan spans +
	// records + config fingerprint) to this path, and write a final one on
	// completion. See checkpoint.go for the crash-safety contract.
	CheckpointPath string
	// CheckpointEvery is the number of completed experiments between
	// checkpoint writes; 0 means a default of 4096. Only meaningful with
	// CheckpointPath.
	CheckpointEvery int
	// Resume restores the checkpoint at CheckpointPath and re-executes
	// only the plan indices it does not cover. The final dataset is
	// byte-identical to an uninterrupted run at any worker count. A
	// missing, corrupt or config-mismatched checkpoint refuses with a
	// typed error instead of silently restarting.
	Resume bool

	// Cancel, when non-nil, requests a graceful early stop: once the
	// channel is closed no further experiments are dispatched, in-flight
	// experiments drain, and — with CheckpointPath set — a final
	// checkpoint covering every completed experiment is written before
	// RunStats returns ErrCanceled. A later run with Resume then finishes
	// the campaign with a dataset byte-identical to an uninterrupted run.
	// Cancellation is schedule-neutral, so it is not part of the resume
	// fingerprint.
	Cancel <-chan struct{}

	// Retries is how many times a panicking experiment is re-attempted
	// before being recorded as Failed; 0 means a default of 1, negative
	// disables retries. Panics never escape a worker: a poisoned
	// experiment costs one dataset row, not the campaign.
	Retries int
	// ExperimentBudget is the per-experiment watchdog: an experiment still
	// running after this wall-clock budget (derive it from the cycle
	// horizon — e.g. RunCycles at a conservative simulated-cycles-per-
	// second floor) is abandoned and recorded as Failed. 0 disables the
	// watchdog, which is the default: a budget trades the campaign's
	// bit-determinism on overloaded machines for guaranteed liveness, so
	// it is opt-in.
	ExperimentBudget time.Duration

	// testHook, when set, runs at the start of every experiment attempt.
	// It exists so tests can inject panics and stalls into the worker pool
	// to exercise the containment layer.
	testHook func(Experiment)
	// testPredict, when set, rewrites every static pruning prediction
	// before the runtime oracle or the dataset sees it, so tests can plant
	// an unsound prediction and watch the oracle abort the campaign.
	testPredict func(Experiment, lockstep.Outcome) lockstep.Outcome
}

// Admission bounds. Plan allocates in proportion to the experiment count
// and to Intervals (each group draws a permutation of the intervals), and
// every kernel's golden trace in proportion to RunCycles, so a config
// beyond any bound is refused with a ConfigError before anything is
// allocated. All sit far above the largest campaign the tools define —
// `lockstep-experiments -scale full` is 171,990 experiments over 64
// intervals, and the longest shipped horizon is 48,000 cycles — and
// MaxExperiments admits the paper's 10 million injections in one
// campaign.
//
// MaxRunCycles is sized from the Golden.TraceBytes layout: per cycle a
// 4-byte port id and a 4-byte fingerprint, at most one newly interned
// 40-byte cpu.Port, at most two 12-byte read events (fetch and data) and
// one 16-byte write event — 88 bytes worst case, 15–34 bytes measured on
// the stock kernels. At 2^20 cycles a 13-kernel request (all goldens are
// held at once) is at most 1.2 GB of trace by that bound; measured, it is
// 0.28 GB of trace and 0.42 GB of live heap with the 17 RAM snapshots and
// liveness tables per kernel.
const (
	MaxExperiments = 1 << 24
	MaxIntervals   = 1 << 16
	MaxRunCycles   = 1 << 20
)

// DefaultConfig is a laptop-scale campaign: full flop coverage, all three
// fault kinds, two intervals per (flop, kind) on every kernel.
func DefaultConfig() Config {
	return Config{
		RunCycles:             12000,
		Intervals:             64,
		InjectionsPerFlopKind: 2,
		FlopStride:            1,
		Seed:                  1,
	}
}

func (c *Config) normalize() error {
	if c.RunCycles <= 0 {
		c.RunCycles = 12000
	}
	if c.Intervals <= 0 {
		c.Intervals = 64
	}
	if c.InjectionsPerFlopKind <= 0 {
		c.InjectionsPerFlopKind = 1
	}
	if c.FlopStride <= 0 {
		c.FlopStride = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 4096
	}
	switch {
	case c.Retries == 0:
		c.Retries = 1
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.RunCycles > MaxRunCycles {
		return &ConfigError{Field: "RunCycles", Reason: fmt.Sprintf("%d cycles exceed the limit of %d", c.RunCycles, MaxRunCycles)}
	}
	if c.Resume && c.CheckpointPath == "" {
		return &ConfigError{Field: "Resume", Reason: "requires CheckpointPath"}
	}
	switch c.Mode.Kind {
	case lockstep.ModeDCLS, lockstep.ModeTMR:
		if c.Mode.Slip != 0 {
			return &ConfigError{Field: "Slip", Reason: fmt.Sprintf("slip count %d requires slip mode", c.Mode.Slip)}
		}
	case lockstep.ModeSlip:
		if c.Mode.Slip < 0 {
			return &ConfigError{Field: "Slip", Reason: fmt.Sprintf("negative slip %d", c.Mode.Slip)}
		}
		if c.Mode.Slip >= c.RunCycles {
			return &ConfigError{Field: "Slip", Reason: fmt.Sprintf(
				"slip %d leaves no compare horizon within the %d-cycle run", c.Mode.Slip, c.RunCycles)}
		}
	default:
		return &ConfigError{Field: "Mode", Reason: fmt.Sprintf("unknown mode kind %d", c.Mode.Kind)}
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []lockstep.FaultKind{lockstep.SoftFlip, lockstep.Stuck0, lockstep.Stuck1}
	}
	if len(c.Kernels) == 0 {
		for _, k := range workload.Kernels() {
			c.Kernels = append(c.Kernels, k.Name)
		}
	}
	for _, name := range c.Kernels {
		if workload.ByName(name) == nil {
			return &ConfigError{Field: "Kernels", Reason: fmt.Sprintf("unknown kernel %q", name)}
		}
	}
	if c.Intervals > MaxIntervals {
		return &ConfigError{Field: "Intervals", Reason: fmt.Sprintf("%d intervals exceed the limit of %d", c.Intervals, MaxIntervals)}
	}
	if _, ok := c.experiments(); !ok {
		return &ConfigError{Field: "InjectionsPerFlopKind", Reason: fmt.Sprintf(
			"%d injections per (flop, kind) make more than %d experiments", c.InjectionsPerFlopKind, MaxExperiments)}
	}
	return nil
}

// experiments returns the experiment count of a config whose defaults are
// applied, and false if it exceeds MaxExperiments. Each partial product is
// checked before the next multiplication, so it cannot overflow.
func (c *Config) experiments() (int, bool) {
	n := len(c.Kernels)
	flops := (cpu.NumFlops()-1)/c.FlopStride + 1
	for _, f := range []int{flops, len(c.Kinds), c.InjectionsPerFlopKind} {
		if f > 0 && n > MaxExperiments/f {
			return 0, false
		}
		n *= f
	}
	return n, true
}

// Fingerprint returns the schedule fingerprint of the config: every field
// that influences which experiments run and what they record, normalized
// (defaults applied, kernel list expanded). Two configs with equal
// fingerprints produce byte-identical datasets, so the fingerprint is a
// stable identity for a campaign — lockstep-serve derives job IDs from
// it, and checkpoints embed it to refuse mismatched resumes.
func (c Config) Fingerprint() (Fingerprint, error) {
	if err := c.normalize(); err != nil {
		return Fingerprint{}, err
	}
	return c.fingerprint(), nil
}

// Total returns the number of experiments the config will run. A config
// that cannot run (e.g. an unknown kernel name, or more than
// MaxExperiments experiments) returns the error that Run/RunStats/Plan
// would return, instead of silently reporting 0.
func (c Config) Total() (int, error) {
	if err := c.normalize(); err != nil {
		return 0, err
	}
	n, _ := c.experiments() // normalize has bounded it
	return n, nil
}

// Stats reports how a campaign ran.
type Stats struct {
	Experiments int // experiments in the dataset (restored + executed)
	Restored    int // experiments restored from a resume checkpoint
	// Pruned counts experiments whose outcome the static liveness
	// analysis proved, recorded without simulation (a subset of
	// Executed: pruning is why exp/s rises).
	Pruned int
	// OracleChecked counts pruned sites the runtime differential oracle
	// re-simulated anyway to confirm the static prediction.
	OracleChecked int
	Failures      int           // experiments recorded as Failed by the containment layer
	Checkpoints   int           // checkpoint files written
	Workers       int           // worker pool size used
	Elapsed       time.Duration // wall clock, golden runs included
	PerSec        float64       // executed experiments per wall-clock second
	// Phases splits Elapsed by pipeline stage; a distributed
	// coordinator, whose experiments run on its workers, leaves it zero.
	Phases Phases
}

// Phases splits a campaign's wall clock into its serial pipeline stages.
// The stages run one after another, so their sum falls short of Elapsed
// only by the bookkeeping between them (resume restore, pending list,
// final checkpoint write).
type Phases struct {
	Plan     time.Duration // plan enumeration
	Golden   time.Duration // golden runs: simulation, liveness, snapshots
	Prune    time.Duration // static pruning pass over the pending experiments
	Simulate time.Duration // worker pool: every experiment pruning left, oracle sample included
}

// String renders the phases one-line, in milliseconds.
func (p Phases) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("plan %.1fms, golden %.1fms, prune %.1fms, simulate %.1fms",
		ms(p.Plan), ms(p.Golden), ms(p.Prune), ms(p.Simulate))
}

// Executed is the number of experiments this run resolved itself, whether
// by simulation or by static pruning.
func (s Stats) Executed() int { return s.Experiments - s.Restored }

// String renders the stats one-line, for CLI summaries.
func (s Stats) String() string {
	out := fmt.Sprintf("%d experiments in %v with %d worker(s) (%.0f exp/s)",
		s.Experiments, s.Elapsed.Round(time.Millisecond), s.Workers, s.PerSec)
	if s.Pruned > 0 {
		out += fmt.Sprintf(", %d pruned (%d oracle-checked)", s.Pruned, s.OracleChecked)
	}
	if s.Restored > 0 {
		out += fmt.Sprintf(", %d restored from checkpoint", s.Restored)
	}
	if s.Failures > 0 {
		out += fmt.Sprintf(", %d FAILED", s.Failures)
	}
	if s.Phases != (Phases{}) {
		out += "; phases: " + s.Phases.String()
	}
	return out
}

// Run executes the campaign and returns the full experiment log.
func Run(cfg Config) (*dataset.Dataset, error) {
	ds, _, err := RunStats(cfg)
	return ds, err
}

// RunStats is Run plus wall-clock/throughput accounting.
func RunStats(cfg Config) (*dataset.Dataset, Stats, error) {
	start := time.Now()
	if err := cfg.normalize(); err != nil {
		return nil, Stats{}, err
	}
	plan, err := cfg.Plan()
	if err != nil {
		return nil, Stats{}, err
	}
	phases := Phases{Plan: time.Since(start)}

	// Records land at their plan index, so the merged dataset is in
	// canonical plan order no matter which worker ran which experiment —
	// and no matter how much of it was restored from a checkpoint.
	records := make([]dataset.Record, len(plan))
	// done[i] is set with release semantics once records[i] is final; the
	// checkpointer's acquire loads make its record snapshots consistent.
	// Only allocated when checkpointing/resume is on, so the plain
	// campaign hot path never touches it.
	var done []atomic.Bool
	if cfg.CheckpointPath != "" {
		done = make([]atomic.Bool, len(plan))
	}
	restored := 0
	if cfg.Resume {
		ck, err := ReadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, Stats{}, err
		}
		if err := ck.validate(cfg, len(plan)); err != nil {
			return nil, Stats{}, err
		}
		restored = ck.restore(records, done)
	}

	// pending is this run's work list: every plan index the resume
	// checkpoint (if any) did not cover, in canonical order. Goldens are
	// only recorded for kernels that still have pending work, so resuming
	// a nearly finished campaign is nearly free.
	pending := make([]int, 0, len(plan)-restored)
	needKernel := make(map[string]bool, len(cfg.Kernels))
	for i := range plan {
		if restored > 0 && done[i].Load() {
			continue
		}
		pending = append(pending, i)
		needKernel[plan[i].Kernel] = true
	}
	var kernels []string
	for _, name := range cfg.Kernels {
		if needKernel[name] {
			kernels = append(kernels, name)
		}
	}
	goldens := make(map[string]*lockstep.Golden, len(kernels))
	goldenStart := time.Now()
	if err := buildGoldens(cfg, kernels, goldens); err != nil {
		return nil, Stats{}, err
	}
	phases.Golden = time.Since(goldenStart)

	var ckp *checkpointer
	if cfg.CheckpointPath != "" {
		ckp = startCheckpointer(cfg, records, done)
	}

	// total is fixed before the prune pass: pruned experiments count as
	// completed work, so Progress still reports a strictly increasing
	// 1..total over everything this run resolves.
	total := len(pending)
	var (
		prog   int
		progMu sync.Mutex
	)
	x := newExecutor(cfg, plan, goldens)
	xs, oracleErr := x.run(pending, func(idx int, rec dataset.Record) {
		records[idx] = rec
		if done != nil {
			done[idx].Store(true)
		}
		if ckp != nil {
			ckp.completed()
		}
		if cfg.Progress != nil {
			progMu.Lock()
			prog++
			cfg.Progress(prog, total)
			progMu.Unlock()
		}
	})
	if xs.pruned > 0 {
		telemetry.Default.Counter("inject.pruned").Add(int64(xs.pruned))
	}
	if xs.oracleChecked > 0 {
		telemetry.Default.Counter("inject.pruned_oracle_checked").Add(int64(xs.oracleChecked))
	}
	phases.Prune, phases.Simulate = xs.prune, xs.simulate

	st := Stats{
		Experiments:   len(plan),
		Restored:      restored,
		Pruned:        xs.pruned,
		OracleChecked: xs.oracleChecked,
		Failures:      xs.failures,
		Workers:       xs.workers,
		Phases:        phases,
	}
	if xs.canceled {
		st.Experiments = restored + xs.pruned + xs.executed
	}
	if ckp != nil {
		n, err := ckp.stop()
		st.Checkpoints = n
		if err != nil {
			return nil, st, fmt.Errorf("inject: checkpoint: %w", err)
		}
	}
	st.Elapsed = time.Since(start)
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.PerSec = float64(st.Executed()) / secs
	}
	x.tel.finish(st)
	if oracleErr != nil {
		return nil, st, oracleErr
	}
	if xs.canceled {
		return nil, st, ErrCanceled
	}
	return &dataset.Dataset{Records: records}, st, nil
}

// recordFor renders one experiment's outcome as its dataset row; the
// statically-pruned path and the simulating workers must produce rows
// through the same function so pruning can never skew the dataset format.
func recordFor(e Experiment, out lockstep.Outcome, mode lockstep.Mode) dataset.Record {
	return dataset.Record{
		Kernel:      e.Kernel,
		Flop:        e.Flop,
		Unit:        cpu.FlopUnit(e.Flop),
		Fine:        cpu.FlopFine(e.Flop),
		Kind:        e.Kind,
		InjectCycle: e.Cycle,
		Detected:    out.Detected,
		DetectCycle: out.DetectCycle,
		DSR:         out.DSR,
		Converged:   out.Converged,
		Failed:      out.Failed,
		Mode:        mode,
	}
}

// executor is the one campaign pipeline: static pruning, the runtime
// differential oracle, the worker pool with cancellation, and the
// oracle-mismatch abort, over a list of plan indices. RunStats feeds it
// the pending plan indices; SpanRunner feeds it one leased span at a time
// and keeps the executor, and with it the per-worker replay scratch,
// across spans.
type executor struct {
	cfg     Config
	plan    []Experiment
	goldens map[string]*lockstep.Golden
	window  int
	tel     *campaignTelemetry
	// workers holds one containment wrapper around replay scratch per
	// executor goroutine, created on first use and reused after: the
	// steady-state hot path allocates nothing, and repositioning between
	// experiments on the same kernel is an incremental image seek, not a
	// full RAM copy.
	workers []*worker
}

func newExecutor(cfg Config, plan []Experiment, goldens map[string]*lockstep.Golden) *executor {
	window := cfg.StopLatency
	if window <= 0 {
		window = lockstep.StopLatency
	}
	return &executor{
		cfg:     cfg,
		plan:    plan,
		goldens: goldens,
		window:  window,
		tel:     newCampaignTelemetry(cfg),
		workers: make([]*worker, cfg.Workers),
	}
}

// execStats reports one executor run.
type execStats struct {
	pruned        int // recorded from the static prediction alone
	oracleChecked int // pruned sites simulated anyway by the runtime oracle
	executed      int // experiments simulated
	failures      int // simulated experiments recorded as Failed
	workers       int // executor goroutines used
	canceled      bool
	prune         time.Duration // wall time of the prune pass
	simulate      time.Duration // wall time of the worker pool
}

// run resolves every plan index in pending, reordering the slice in
// place, and hands each experiment's record to put once it is final. put
// is called concurrently from the executor goroutines. Every goldens
// entry the indices need must already be built.
//
// The prune pass records every experiment whose outcome the golden run's
// liveness analysis proves, without dispatching it. A deterministic
// seeded sample of the prunable sites stays in the work list as the
// runtime differential oracle: the workers simulate those normally, and
// run stops dispatching and returns an error on the first simulated
// outcome that contradicts its prediction. The pass is serial and
// derived only from plan and goldens, so the records are identical
// across worker counts, resumes, span cuts, and pruning on or off.
//
// Dispatch stops early when cfg.Cancel fires; the experiments already
// dispatched still finish and reach put.
func (x *executor) run(pending []int, put func(idx int, rec dataset.Record)) (execStats, error) {
	var st execStats
	resolve := func(idx int, out lockstep.Outcome) {
		e := x.plan[idx]
		x.tel.record(e, out)
		put(idx, recordFor(e, out, x.cfg.Mode))
	}

	pruneStart := time.Now()
	var oracleExpect map[int]lockstep.Outcome
	if !x.cfg.NoPrune {
		oracleExpect = make(map[int]lockstep.Outcome)
		remaining := pending[:0]
		for _, idx := range pending {
			e := x.plan[idx]
			out, ok := x.goldens[e.Kernel].PruneMode(lockstep.Injection{Flop: e.Flop, Kind: e.Kind, Cycle: e.Cycle}, x.cfg.Mode)
			if !ok {
				remaining = append(remaining, idx)
				continue
			}
			if x.cfg.testPredict != nil {
				out = x.cfg.testPredict(e, out)
			}
			if oracleSampled(x.cfg.Seed, e) {
				oracleExpect[idx] = out
				st.oracleChecked++
				remaining = append(remaining, idx)
				continue
			}
			resolve(idx, out)
			st.pruned++
		}
		pending = remaining
	}
	simStart := time.Now()
	st.prune = simStart.Sub(pruneStart)

	st.workers = min(x.cfg.Workers, len(pending))
	if st.workers < 1 {
		st.workers = 1
	}
	// abort stops dispatch when the runtime oracle catches a static
	// prediction that the simulator contradicts; the first mismatch wins.
	abort := make(chan struct{})
	var abortOnce sync.Once
	var oracleErr error
	next := make(chan int)
	var failures, executed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < st.workers; i++ {
		if x.workers[i] == nil {
			x.workers[i] = &worker{cfg: x.cfg, goldens: x.goldens, window: x.window}
		}
		w := x.workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				e := x.plan[idx]
				out := w.run(e)
				if out.Failed {
					failures.Add(1)
				}
				if expect, ok := oracleExpect[idx]; ok && !out.Failed && out != expect {
					abortOnce.Do(func() {
						oracleErr = fmt.Errorf(
							"inject: pruning oracle mismatch: %s %s at flop %d (%s) cycle %d predicted %+v, simulated %+v",
							e.Kernel, e.Kind, e.Flop, cpu.FlopName(e.Flop), e.Cycle, expect, out)
						close(abort)
					})
				}
				resolve(idx, out)
				executed.Add(1)
			}
		}()
	}
	// Receiving from a nil Cancel blocks forever, so the select
	// degenerates to a plain send for the common un-cancellable case.
feed:
	for _, idx := range pending {
		select {
		case next <- idx:
		case <-x.cfg.Cancel:
			st.canceled = true
			break feed
		case <-abort:
			break feed
		}
	}
	close(next)
	wg.Wait()
	st.simulate = time.Since(simStart)
	st.executed = int(executed.Load())
	st.failures = int(failures.Load())
	return st, oracleErr
}

// oracleSampled deterministically selects ~1/64 of prunable sites for the
// runtime differential oracle. The decision hashes only the campaign seed
// and the experiment coordinates — never worker count or iteration order —
// so the same sites are re-simulated on every run and resume of a
// campaign, keeping datasets byte-identical.
func oracleSampled(seed int64, e Experiment) bool {
	h := uint64(mix(seed, e.Kernel, e.Flop, int(e.Kind)))
	h ^= uint64(e.Cycle) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h&63 == 0
}

// worker runs experiments under the campaign's fault-containment policy:
// panic isolation with bounded retry, plus the optional per-experiment
// watchdog budget. One worker is owned by exactly one executor goroutine
// at a time.
type worker struct {
	cfg     Config
	goldens map[string]*lockstep.Golden
	window  int
	rep     *lockstep.Replayer // replay scratch; nil until first use or after poisoning
}

// run executes one experiment and never panics: a panicking experiment is
// re-attempted up to cfg.Retries times on a fresh replay scratch (the old
// one may be mid-experiment) and then recorded as Failed; a
// watchdog-budget overrun is recorded as Failed immediately, since the
// budget is already spent.
func (w *worker) run(e Experiment) lockstep.Outcome {
	for attempt := 0; ; attempt++ {
		out, panicked, timedOut := w.attempt(e)
		switch {
		case timedOut:
			w.rep = nil
			return lockstep.Outcome{Failed: true}
		case panicked:
			w.rep = nil
			if attempt < w.cfg.Retries {
				continue
			}
			return lockstep.Outcome{Failed: true}
		default:
			return out
		}
	}
}

// attempt performs one try, enforcing the watchdog budget if configured.
// On a timeout the experiment goroutine is abandoned together with its
// replay scratch: it holds no locks, reads only the immutable golden, and
// its result is discarded, so the worker can move on safely.
func (w *worker) attempt(e Experiment) (out lockstep.Outcome, panicked, timedOut bool) {
	rep := w.rep
	if rep == nil && !w.cfg.Legacy {
		rep = lockstep.NewReplayer()
	}
	w.rep = rep
	if w.cfg.ExperimentBudget <= 0 {
		out, panicked = w.once(e, rep)
		return out, panicked, false
	}
	type result struct {
		out      lockstep.Outcome
		panicked bool
	}
	ch := make(chan result, 1)
	go func() {
		o, p := w.once(e, rep)
		ch <- result{o, p}
	}()
	timer := time.NewTimer(w.cfg.ExperimentBudget)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.panicked, false
	case <-timer.C:
		return lockstep.Outcome{}, false, true
	}
}

// once is a single contained attempt. It touches no worker fields besides
// read-only config and goldens, so an abandoned (timed-out) invocation
// cannot race with the worker's next attempt.
func (w *worker) once(e Experiment, rep *lockstep.Replayer) (out lockstep.Outcome, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	if w.cfg.testHook != nil {
		w.cfg.testHook(e)
	}
	inj := lockstep.Injection{Flop: e.Flop, Kind: e.Kind, Cycle: e.Cycle}
	if w.cfg.Legacy {
		return w.goldens[e.Kernel].InjectLegacyMode(inj, w.cfg.Mode, w.window), false
	}
	return rep.InjectMode(w.goldens[e.Kernel], inj, w.cfg.Mode, w.window), false
}

// checkpointer owns the campaign's checkpoint file. Workers only flip
// done bits and bump a completion counter; the checkpointer goroutine
// snapshots the done bitmap into spans and persists them atomically every
// CheckpointEvery completions, and stop() writes the final checkpoint.
type checkpointer struct {
	path    string
	every   int64
	fp      Fingerprint
	records []dataset.Record
	done    []atomic.Bool

	completedN atomic.Int64
	kick       chan struct{}
	quit       chan struct{}
	idle       sync.WaitGroup

	// Written by the loop goroutine, read by stop() after idle.Wait.
	writes int
	err    error

	telWrites        *telemetry.Counter
	telDone, telLast *telemetry.Gauge
}

func startCheckpointer(cfg Config, records []dataset.Record, done []atomic.Bool) *checkpointer {
	c := &checkpointer{
		path:      cfg.CheckpointPath,
		every:     int64(cfg.CheckpointEvery),
		fp:        cfg.fingerprint(),
		records:   records,
		done:      done,
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		telWrites: telemetry.Default.Counter("inject.checkpoint_writes"),
		telDone:   telemetry.Default.Gauge("inject.checkpoint_done"),
		telLast:   telemetry.Default.Gauge("inject.checkpoint_last_unix_ms"),
	}
	telemetry.Default.Gauge("inject.checkpoint_total").Set(int64(len(records)))
	c.idle.Add(1)
	go c.loop()
	return c
}

// completed is the worker-side trigger: O(1), lock-free.
func (c *checkpointer) completed() {
	if c.completedN.Add(1)%c.every == 0 {
		select {
		case c.kick <- struct{}{}:
		default: // a write is already due; it will see these completions
		}
	}
}

func (c *checkpointer) loop() {
	defer c.idle.Done()
	for {
		select {
		case <-c.kick:
			c.write()
		case <-c.quit:
			return
		}
	}
}

// write snapshots the done bitmap into sorted disjoint spans and persists
// the checkpoint. The campaign keeps running on a write error; the first
// error is surfaced when the checkpointer stops, so a full dataset is
// never discarded because one checkpoint write failed mid-run.
func (c *checkpointer) write() {
	ck := &Checkpoint{FP: c.fp, Total: len(c.records)}
	for i := range c.done {
		if !c.done[i].Load() {
			continue
		}
		if n := len(ck.Done); n > 0 && ck.Done[n-1].Hi == i {
			ck.Done[n-1].Hi = i + 1
		} else {
			ck.Done = append(ck.Done, Span{Lo: i, Hi: i + 1})
		}
		ck.Records = append(ck.Records, c.records[i])
	}
	if err := WriteCheckpoint(c.path, ck); err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	c.writes++
	c.telWrites.Inc()
	c.telDone.Set(int64(len(ck.Records)))
	c.telLast.Set(time.Now().UnixMilli())
}

// stop drains the checkpoint loop, writes the final checkpoint (which
// covers the whole plan on a completed campaign) and reports how many
// checkpoint files were written plus the first write error, if any.
func (c *checkpointer) stop() (int, error) {
	close(c.quit)
	c.idle.Wait()
	c.write()
	return c.writes, c.err
}

// campaignTelemetry holds the pre-created metric handles for one
// campaign, so experiment workers record with pure atomic operations and
// never touch the registry's mutex on the hot path. All metrics land in
// telemetry.Default; recording does not influence the experiment
// schedule or outcomes, so datasets stay bit-identical with or without a
// metrics consumer attached.
type campaignTelemetry struct {
	outcomes    map[string]*outcomeTel
	experiments *telemetry.Counter
	failures    *telemetry.Counter
}

// outcomeTel is the per-(kernel, kind) handle set: one counter per
// outcome class plus the detection-latency histogram (injection cycle to
// checker detection, the paper's manifestation time).
type outcomeTel struct {
	detected  *telemetry.Counter
	converged *telemetry.Counter
	escaped   *telemetry.Counter
	failed    *telemetry.Counter
	latency   *telemetry.Histogram
}

func outcomeKey(kernel string, kind lockstep.FaultKind) string {
	return kernel + "\x00" + kind.String()
}

func newCampaignTelemetry(cfg Config) *campaignTelemetry {
	t := &campaignTelemetry{
		outcomes:    make(map[string]*outcomeTel, len(cfg.Kernels)*len(cfg.Kinds)),
		experiments: telemetry.Default.Counter("inject.experiments"),
		failures:    telemetry.Default.Counter("inject.experiment_failures"),
	}
	for _, kernel := range cfg.Kernels {
		for _, kind := range cfg.Kinds {
			kk, kd := telemetry.L("kernel", kernel), telemetry.L("kind", kind.String())
			t.outcomes[outcomeKey(kernel, kind)] = &outcomeTel{
				detected:  telemetry.Default.Counter("inject.outcomes", kk, kd, telemetry.L("outcome", "detected")),
				converged: telemetry.Default.Counter("inject.outcomes", kk, kd, telemetry.L("outcome", "converged")),
				escaped:   telemetry.Default.Counter("inject.outcomes", kk, kd, telemetry.L("outcome", "escaped")),
				failed:    telemetry.Default.Counter("inject.outcomes", kk, kd, telemetry.L("outcome", "failed")),
				latency:   telemetry.Default.Histogram("inject.detect_latency", telemetry.CycleBuckets, kk, kd),
			}
		}
	}
	return t
}

func (t *campaignTelemetry) record(e Experiment, out lockstep.Outcome) {
	t.experiments.Inc()
	o := t.outcomes[outcomeKey(e.Kernel, e.Kind)]
	switch {
	case out.Failed:
		o.failed.Inc()
		t.failures.Inc()
	case out.Detected:
		o.detected.Inc()
		o.latency.Observe(int64(out.DetectCycle - e.Cycle))
	case out.Converged:
		o.converged.Inc()
	default:
		o.escaped.Inc()
	}
}

func (t *campaignTelemetry) finish(st Stats) {
	telemetry.Default.Gauge("inject.workers").Set(int64(st.Workers))
	telemetry.Default.Gauge("inject.elapsed_ms").Set(st.Elapsed.Milliseconds())
	telemetry.Default.Gauge("inject.per_sec").Set(int64(st.PerSec))
	phase := func(name string) *telemetry.Gauge {
		return telemetry.Default.Gauge("inject.phase_us", telemetry.L("phase", name))
	}
	phase("plan").Set(st.Phases.Plan.Microseconds())
	phase("golden").Set(st.Phases.Golden.Microseconds())
	phase("prune").Set(st.Phases.Prune.Microseconds())
	phase("simulate").Set(st.Phases.Simulate.Microseconds())
}

// buildGoldens records the fault-free golden run of every named kernel
// not yet in goldens, in parallel (each golden is an independent
// simulation), and publishes the total trace footprint of goldens as the
// inject.golden_trace_bytes gauge. Goldens are immutable and shared
// read-only by all experiment workers.
func buildGoldens(cfg Config, kernels []string, goldens map[string]*lockstep.Golden) error {
	snapEvery := cfg.RunCycles / 16
	if snapEvery < 1 {
		snapEvery = 1
	}
	var todo []string
	for _, name := range kernels {
		if goldens[name] == nil {
			todo = append(todo, name)
		}
	}
	errs := make([]error, len(todo))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	sem := make(chan struct{}, cfg.Workers)
	for i, name := range todo {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			g, err := lockstep.NewGolden(workload.ByName(name), cfg.RunCycles, snapEvery)
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			goldens[name] = g
			mu.Unlock()
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var traceBytes int64
	for _, g := range goldens {
		traceBytes += g.TraceBytes()
	}
	telemetry.Default.Gauge("inject.golden_trace_bytes").Set(traceBytes)
	return nil
}
