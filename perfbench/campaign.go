package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

// campaignWorkers is the experiment pool of every campaign the benchmark
// runs: one worker per CPU of the 2-CPU host the benchmark is sized for.
const campaignWorkers = 2

// checkpointEvery is lockstep-inject's default number of completed
// experiments between checkpoint writes; the serial reconstruction
// writes on the same schedule.
const checkpointEvery = 4096

// campaignSpec is one campaign shape, expressed once and rendered both as
// lockstep-inject flags and as the inject.Config the traced run rebuilds.
type campaignSpec struct {
	Kernels    []string // empty: the full suite
	Cycles     int
	Stride     int
	Inj        int
	Mode       string
	Checkpoint bool // checkpoint as every lockstep-serve job does
}

var (
	// Every (kernel, flop, kind) group holds one experiment, so plan
	// generation and the prune pass carry most of their possible load.
	campaignWide = campaignSpec{Cycles: 6000, Stride: 1, Inj: 1, Mode: "dcls"}
	// 828 groups over long horizons under TMR: replay dominates and
	// plan generation is negligible.
	campaignDeepTMR = campaignSpec{Kernels: []string{"a2time", "matrix"},
		Cycles: 48000, Stride: 16, Inj: 16, Mode: "tmr", Checkpoint: true}
	// The campaign predict-closed trains its tables from.
	referenceCampaign = campaignSpec{Kernels: []string{"ttsprk", "rspeed", "puwmod"},
		Cycles: 6000, Stride: 7, Inj: 1, Mode: "dcls", Checkpoint: true}
)

func (c campaignSpec) args(seed int64, out, ckpt string) []string {
	a := []string{"-o", out, "-cycles", fmt.Sprint(c.Cycles), "-stride", fmt.Sprint(c.Stride),
		"-inj", fmt.Sprint(c.Inj), "-seed", fmt.Sprint(seed), "-mode", c.Mode,
		"-workers", fmt.Sprint(campaignWorkers), "-summary=false"}
	if len(c.Kernels) > 0 {
		a = append(a, "-kernels", strings.Join(c.Kernels, ","))
	}
	if c.Checkpoint {
		a = append(a, "-checkpoint", ckpt)
	}
	return a
}

func (c campaignSpec) config(seed int64) (inject.Config, error) {
	mode, err := lockstep.ParseMode(c.Mode)
	if err != nil {
		return inject.Config{}, err
	}
	cfg := inject.Config{
		Kernels:               append([]string(nil), c.Kernels...),
		RunCycles:             c.Cycles,
		Intervals:             64,
		InjectionsPerFlopKind: c.Inj,
		FlopStride:            c.Stride,
		Seed:                  seed,
		Mode:                  mode,
		Workers:               1,
	}
	// Normalizes the kernel list and rejects an invalid shape up front.
	if _, err := cfg.Fingerprint(); err != nil {
		return inject.Config{}, err
	}
	if len(cfg.Kernels) == 0 {
		for _, k := range workload.Kernels() {
			cfg.Kernels = append(cfg.Kernels, k.Name)
		}
	}
	return cfg, nil
}

// fixedCost is the same campaign cut to one flop per kernel: what it
// costs before the experiments scale in (process start, plan, and the
// golden run of every kernel over the full horizon).
func (c campaignSpec) fixedCost() campaignSpec {
	c.Stride = 1 << 20
	c.Inj = 1
	return c
}

// campaignRun is one lockstep-inject run and its checked output.
type campaignRun struct {
	proc   procResult
	rows   int
	digest string
	csv    []byte
}

func runInject(e *env, spec campaignSpec, seed int64) (campaignRun, error) {
	out := filepath.Join(e.work, "campaign.csv")
	ckpt := filepath.Join(e.work, "campaign.lsc")
	os.Remove(out)
	os.Remove(ckpt)
	p, err := runChild(filepath.Join(e.bin, "lockstep-inject"), spec.args(seed, out, ckpt)...)
	if err != nil {
		return campaignRun{}, err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return campaignRun{}, err
	}
	return campaignRun{proc: p, rows: bytes.Count(data, []byte{'\n'}) - 1, digest: sha(data), csv: data}, nil
}

// campaignE2E is the untraced run of a campaign workload: the fixed
// campaign cost several times for setup_s, then the full campaign
// repeated for the measuring time, each run a lockstep-inject child.
func campaignE2E(e *env, spec campaignSpec, seed int64, seconds float64) (*result, error) {
	cfg, err := spec.config(seed)
	if err != nil {
		return nil, err
	}
	total, _ := cfg.Total()
	res := newResult()

	// A discarded first run reads the program into the page cache, a
	// cost paid once per build, not per campaign.
	if _, err := runInject(e, spec.fixedCost(), seed); err != nil {
		return nil, err
	}
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		r, err := runInject(e, spec.fixedCost(), seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, r.proc.Wall.Seconds())
	}

	// Every run must write the bytes of the first, whose rows are parsed
	// and counted once. The host is calibrated between runs.
	var first string
	var failedRows int
	var wall, cpuPer, rate, rss []float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < seconds; i++ {
		e.calibrate()
		r, err := runInject(e, spec, seed)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = r.digest
			failedRows, err = checkDataset(r.csv, total)
			if err != nil {
				res.fail(r.rows, err)
			}
		}
		if res.check("lockstep-inject dataset", first, r.digest, r.rows) {
			res.Failed += failedRows
		}
		wall = append(wall, float64(r.proc.Wall.Microseconds())/1e3)
		rate = append(rate, float64(r.rows)/r.proc.Wall.Seconds())
		cpuPer = append(cpuPer, float64(r.proc.CPU.Microseconds())/float64(r.rows))
		rss = append(rss, float64(r.proc.MaxRSS)/(1<<20))
		e.logf("run %d: %d experiments in %.3f s (%.0f exp/s), cpu %.3f s, peak rss %.1f MiB, sha256 %s",
			i+1, r.rows, r.proc.Wall.Seconds(), rate[i], r.proc.CPU.Seconds(), rss[i], r.digest[:16])
	}
	e.calibrate()
	res.set("ops_per_s", median(rate), "1/s")
	res.set("cpu_us_per_op", median(cpuPer), "us")
	res.set("p50_ms", median(wall), "ms")
	res.set("p99_ms", percentile(wall, 99), "ms")
	res.set("peak_rss_mb", median(rss), "MiB")
	res.set("setup_s", median(setup), "s")
	e.logf("samples: %d campaign runs, %d fixed-cost runs (%.3f s); exp_per_s = ops_per_s, cpu_us_per_exp = cpu_us_per_op", len(wall), len(setup), setup)
	return res, nil
}

// checkDataset parses a campaign CSV, checks it holds the whole plan and
// returns how many experiments the program recorded as Failed.
func checkDataset(csv []byte, total int) (int, error) {
	ds, err := dataset.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return 0, fmt.Errorf("dataset does not parse: %v", err)
	}
	if ds.Len() != total {
		return 0, fmt.Errorf("dataset has %d rows, the plan has %d", ds.Len(), total)
	}
	failed := 0
	for _, r := range ds.Records {
		if r.Failed {
			failed++
		}
	}
	return failed, nil
}

// rebuilt is the serial reconstruction of one campaign from the public
// calls of each layer, and what each layer did.
type rebuilt struct {
	csv  []byte
	rows int
	wall time.Duration

	groups, kernels      int
	pruneCalls, pruned   int
	replays, detected    int
	traceBytes, csvBytes int64
	ckptBytes            int64
	ckptWrites           int
}

// rebuild runs the campaign pipeline serially — plan, golden runs, prune
// pass, replay, CSV rendering and checkpoint writes — with a span around
// every call into a layer when tr is non-nil. The enclosing "campaign"
// span's self time is the executor: everything between the layer calls.
func rebuild(spec campaignSpec, seed int64, ckptPath string, tr *tracer) (*rebuilt, error) {
	cfg, err := spec.config(seed)
	if err != nil {
		return nil, err
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, err
	}
	var (
		idRoot   = tr.id("campaign")
		idPlan   = tr.id("inject.plan")
		idGolden = tr.id("lockstep.golden")
		idPrune  = tr.id("lockstep.prune")
		idSoft   = tr.id("lockstep.replay.soft")
		idStuck  = tr.id("lockstep.replay.stuck")
		idCSV    = tr.id("dataset.csv")
		idCkpt   = tr.id("inject.checkpoint")
	)
	b := &rebuilt{kernels: len(cfg.Kernels)}
	start := time.Now()
	tr.begin(idRoot)

	tr.begin(idPlan)
	plan, err := cfg.Plan()
	tr.end()
	if err != nil {
		return nil, err
	}
	b.groups = len(plan) / cfg.InjectionsPerFlopKind

	// The snapshot interval inject uses for its golden runs.
	snapEvery := max(cfg.RunCycles/16, 1)
	goldens := make(map[string]*lockstep.Golden, len(cfg.Kernels))
	for _, name := range cfg.Kernels {
		tr.begin(idGolden)
		g, err := lockstep.NewGolden(workload.ByName(name), cfg.RunCycles, snapEvery)
		tr.end()
		if err != nil {
			return nil, err
		}
		goldens[name] = g
		b.traceBytes += g.TraceBytes()
	}

	records := make([]dataset.Record, len(plan))
	done := make([]bool, len(plan))
	completed := 0
	complete := func(idx int, out lockstep.Outcome) error {
		e := plan[idx]
		records[idx] = dataset.Record{
			Kernel: e.Kernel, Flop: e.Flop, Unit: cpu.FlopUnit(e.Flop), Fine: cpu.FlopFine(e.Flop),
			Kind: e.Kind, InjectCycle: e.Cycle, Detected: out.Detected, DetectCycle: out.DetectCycle,
			DSR: out.DSR, Converged: out.Converged, Failed: out.Failed, Mode: cfg.Mode,
		}
		done[idx] = true
		completed++
		if spec.Checkpoint && completed%checkpointEvery == 0 {
			tr.begin(idCkpt)
			err := writeCheckpoint(ckptPath, fp, records, done)
			tr.end()
			b.ckptWrites++
			return err
		}
		return nil
	}

	var remaining []int
	for idx, e := range plan {
		inj := lockstep.Injection{Flop: e.Flop, Kind: e.Kind, Cycle: e.Cycle}
		tr.begin(idPrune)
		out, ok := goldens[e.Kernel].PruneMode(inj, cfg.Mode)
		tr.end()
		b.pruneCalls++
		if !ok {
			remaining = append(remaining, idx)
			continue
		}
		b.pruned++
		if err := complete(idx, out); err != nil {
			return nil, err
		}
	}

	rep := lockstep.NewReplayer()
	for _, idx := range remaining {
		e := plan[idx]
		inj := lockstep.Injection{Flop: e.Flop, Kind: e.Kind, Cycle: e.Cycle}
		if e.Kind == lockstep.SoftFlip {
			tr.begin(idSoft)
		} else {
			tr.begin(idStuck)
		}
		out := rep.InjectMode(goldens[e.Kernel], inj, cfg.Mode, lockstep.StopLatency)
		tr.end()
		b.replays++
		if out.Detected {
			b.detected++
		}
		if err := complete(idx, out); err != nil {
			return nil, err
		}
	}

	var csv bytes.Buffer
	tr.begin(idCSV)
	err = (&dataset.Dataset{Records: records}).WriteCSV(&csv)
	tr.end()
	if err != nil {
		return nil, err
	}
	b.csv = csv.Bytes()
	b.rows = len(records)
	b.csvBytes = int64(csv.Len())

	if spec.Checkpoint {
		tr.begin(idCkpt)
		err := writeCheckpoint(ckptPath, fp, records, done)
		tr.end()
		if err != nil {
			return nil, err
		}
		b.ckptWrites++
	}
	tr.end()
	b.wall = time.Since(start)

	// A campaign run without checkpoints still reports what its final
	// checkpoint would cost, measured outside the traced wall.
	if !spec.Checkpoint {
		tr.begin(tr.id("inject.checkpoint.probe"))
		err := writeCheckpoint(ckptPath, fp, records, done)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	st, err := os.Stat(ckptPath)
	if err != nil {
		return nil, err
	}
	b.ckptBytes = st.Size()
	return b, nil
}

// writeCheckpoint persists the completed records as inject's
// checkpointer does: done plan indices folded into spans, records in
// plan order.
func writeCheckpoint(path string, fp inject.Fingerprint, records []dataset.Record, done []bool) error {
	ck := &inject.Checkpoint{FP: fp, Total: len(records)}
	for i, ok := range done {
		if !ok {
			continue
		}
		if n := len(ck.Done); n > 0 && ck.Done[n-1].Hi == i {
			ck.Done[n-1].Hi = i + 1
		} else {
			ck.Done = append(ck.Done, inject.Span{Lo: i, Hi: i + 1})
		}
		ck.Records = append(ck.Records, records[i])
	}
	return inject.WriteCheckpoint(path, ck)
}

// campaignTraced is the traced run of a campaign workload: one untraced
// program run for the reference dataset, the serial layer rebuild against
// it, then the server layers on the predict-closed reference set-up.
func campaignTraced(e *env, spec campaignSpec, seed int64) (*result, error) {
	res := newResult()
	r, err := runInject(e, spec, seed)
	if err != nil {
		return nil, err
	}
	e.logf("reference run: %d experiments in %.3f s, sha256 %s", r.rows, r.proc.Wall.Seconds(), r.digest[:16])
	if err := campaignLayers(e, res, spec, seed, r.digest); err != nil {
		return nil, err
	}
	if _, err := serverLayers(e, res, seed, serverProbeSeconds); err != nil {
		return nil, err
	}
	return res, nil
}

// campaignLayers is the traced side of a campaign: the serial runs the
// per-layer metrics come from, checked byte for byte against want, the
// dataset the untraced program wrote. Untraced and traced reconstructions
// alternate so that drift on the host falls on both alike.
func campaignLayers(e *env, res *result, spec campaignSpec, seed int64, want string) error {
	cfg, err := spec.config(seed)
	if err != nil {
		return err
	}
	ckpt := filepath.Join(e.work, "rebuild.lsc")

	// The program's own serial executor, for comparison with the rebuild.
	if spec.Checkpoint {
		cfg.CheckpointPath = ckpt
		os.Remove(ckpt)
	}
	runtime.GC()
	start := time.Now()
	ds, _, err := inject.RunStats(cfg)
	runStats := time.Since(start)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return err
	}
	res.check("serial inject.RunStats dataset", want, sha(buf.Bytes()), ds.Len())

	const passes = 2
	var untraced, traced time.Duration
	sum := map[string]layerTime{}
	var last *rebuilt
	for pass := 0; pass < 2*passes; pass++ {
		var tr *tracer
		if pass%2 == 1 {
			tr = newTracer()
		}
		os.Remove(ckpt)
		runtime.GC()
		b, err := rebuild(spec, seed, ckpt, tr)
		if err != nil {
			return err
		}
		res.check("rebuilt dataset", want, sha(b.csv), b.rows)
		if tr == nil {
			untraced += b.wall
			continue
		}
		traced += b.wall
		for name, lt := range tr.layers() {
			s := sum[name]
			s.Self += lt.Self
			s.Count += lt.Count
			sum[name] = s
		}
		last = b
	}

	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / passes }
	soft, stuck := sum["lockstep.replay.soft"], sum["lockstep.replay.stuck"]
	layerSum := time.Duration(0)
	for name, lt := range sum {
		if name != "campaign" && name != "inject.checkpoint.probe" {
			layerSum += lt.Self
		}
	}
	res.set("inject.plan.ms", ms(sum["inject.plan"].Self), "ms")
	res.set("inject.plan.groups", float64(last.groups), "count")
	res.set("lockstep.golden.ms", ms(sum["lockstep.golden"].Self), "ms")
	res.set("lockstep.golden.ns_per_cycle",
		float64(sum["lockstep.golden"].Self.Nanoseconds())/passes/float64(last.kernels*cfg.RunCycles), "ns")
	res.set("lockstep.golden.trace_bytes", float64(last.traceBytes), "bytes")
	res.set("lockstep.prune.ms", ms(sum["lockstep.prune"].Self), "ms")
	res.set("lockstep.prune.calls", float64(last.pruneCalls), "count")
	res.set("lockstep.prune.hit_frac", float64(last.pruned)/float64(last.pruneCalls), "ratio")
	res.set("lockstep.replay.ms", ms(soft.Self+stuck.Self), "ms")
	res.set("lockstep.replay.calls", float64(last.replays), "count")
	res.set("lockstep.replay.us_per_call",
		float64((soft.Self+stuck.Self).Nanoseconds())/1e3/float64(soft.Count+stuck.Count), "us")
	res.set("lockstep.replay.soft_ms", ms(soft.Self), "ms")
	res.set("lockstep.replay.stuck_ms", ms(stuck.Self), "ms")
	res.set("lockstep.replay.detected", float64(last.detected), "count")
	res.set("dataset.csv.ms", ms(sum["dataset.csv"].Self), "ms")
	res.set("dataset.csv.bytes", float64(last.csvBytes), "bytes")
	res.set("inject.checkpoint.write_ms", ms(sum["inject.checkpoint"].Self+sum["inject.checkpoint.probe"].Self), "ms")
	res.set("inject.checkpoint.writes", float64(last.ckptWrites), "count")
	res.set("inject.checkpoint.bytes", float64(last.ckptBytes), "bytes")
	res.set("inject.executor.ms", ms(sum["campaign"].Self), "ms")
	res.set("inject.traced_wall.ms", ms(traced), "ms")
	res.set("inject.runstats.ms", float64(runStats.Nanoseconds())/1e6, "ms")
	res.set("trace.overhead_frac", float64(traced)/float64(untraced)-1, "ratio")
	e.logf("traced rebuild: layers %.1f ms + executor %.1f ms = traced wall %.1f ms (untraced %.1f ms, serial inject.RunStats %.1f ms)",
		ms(layerSum), ms(sum["campaign"].Self), ms(traced), ms(untraced), float64(runStats.Nanoseconds())/1e6)
	return nil
}
