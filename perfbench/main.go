// Command perfbench is daosim's end-to-end and per-layer benchmark. It runs
// daosd in process on loopback listeners, drives it through
// studysvc.Client with one closed-loop client, checks every streamed study
// against an in-process core.Runner run, and prints its metrics as one JSON
// line:
//
//	perfbench --workload paper-cold --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer, runs the per-layer
// probes, and prints the per-layer metrics instead. See README.md for the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"daosim/internal/cache"
	"daosim/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every metric a --trace 0 run prints.
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"cpu_ms_per_point", "ms"},
	{"alloc_mb_per_point", "MB"},
	{"setup_s", "s"},
}

// stackLayers are the stack probes' layers, each above the one it calls.
var stackLayers = []string{"vos", "daos", "dfs", "dfuse", "mpiio", "mpiio_coll", "hdf5"}

// perLayer is every metric a --trace 1 run prints.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"studysvc.worker_run_ms_p50", "ms"},
		{"studysvc.worker_run_ms_sum", "ms"},
		{"studysvc.worker_run_count", "count"},
		{"studysvc.queue_wait_ms_p50", "ms"},
		{"studysvc.deliver_ms_p50", "ms"},
		{"studysvc.cache_hit_ratio", "ratio"},
		{"studysvc.coalesced", "count"},
		{"studysvc.retries", "count"},
		{"studysvc.ndjson_encode_us", "us"},
		{"studysvc.ndjson_decode_us", "us"},
		{"cache.mem_get_us", "us"},
		{"cache.mem_put_us", "us"},
		{"cache.disk_load_us", "us"},
		{"cache.disk_store_us", "us"},
		{"core.key_us", "us"},
		{"jobstore.append_point_us", "us"},
		{"jobstore.open_ms", "ms"},
		{"breakdown.points", "count"},
		{"cluster.testbed_build_ms", "ms"},
		{"cluster.testbed_build_alloc_mb", "MB"},
		{"ior.env_setup_ms", "ms"},
		{"ior.env_setup_alloc_mb", "MB"},
		{"ior.write_ms", "ms"},
		{"ior.write_alloc_mb", "MB"},
		{"ior.read_ms", "ms"},
		{"ior.read_alloc_mb", "MB"},
		{"cluster.shutdown_ms", "ms"},
		{"cluster.shutdown_alloc_mb", "MB"},
		{"ior.write_virtual_s", "s"},
		{"ior.read_virtual_s", "s"},
	}
	for i, l := range stackLayers {
		for _, phase := range []string{"write", "read"} {
			defs = append(defs,
				metricDef{l + "." + phase + "_us_per_op", "us"},
				metricDef{l + "." + phase + "_alloc_kb_per_op", "KB"},
				metricDef{l + "." + phase + "_virtual_us_per_op", "us"})
			if i > 0 {
				defs = append(defs, metricDef{l + "." + phase + "_self_us_per_op", "us"})
			}
		}
	}
	return append(defs,
		metricDef{"trace.overhead_points_per_s", "1/s"},
		metricDef{"trace.spans", "count"})
}()

// options is one invocation.
type options struct {
	w        workload
	sz       size
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceDir string // where a traced run writes its spans
	log      io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill sets the metrics named by defs from values; a name without a value
// is a bug in the benchmark.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return fmt.Errorf("measured %d metrics, defined %d", len(values), len(defs))
	}
	return nil
}

// execute performs one run: reference, set-up, the closed loop, the checks
// and, when traced, the per-layer probes.
func execute(o options) (*result, error) {
	w, sz := o.w, o.sz
	r := &run{w: w, sz: sz, seed: o.seed}
	if o.trace {
		r.rec = newRecorder()
	}
	logf := func(format string, args ...any) { fmt.Fprintf(o.log, "perfbench: "+format+"\n", args...) }

	res := &result{}
	var problems []string
	verify := func(b *batch, want []*core.Study) {
		res.Attempted += b.points
		bad, err := r.check(b, want)
		res.Failed += bad
		if err != nil {
			problems = append(problems, err.Error())
		}
	}

	// The reference is computed outside timing and set-up. For
	// service-warm it also fills the cache the server then answers from.
	var ref []*core.Study
	cfgs0 := w.configs(sz, o.seed, 0)
	if w.same {
		if w.warm {
			c, err := cache.New(cache.Options{})
			if err != nil {
				return nil, err
			}
			r.warmCache = c
		}
		var err error
		if ref, err = reference(cfgs0, paperSlots, r.warmCache); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}

	// Set up several times; the last topology serves the load unless every
	// batch gets its own.
	var setups sample
	var top *topology
	closeTop := func() error {
		err := top.close()
		top = nil
		return err
	}
	for i := 0; i < sz.setups; i++ {
		t, d, warmup, err := r.setup(cfgs0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		top = t
		setups = append(setups, d.Seconds())
		if warmup != nil {
			verify(warmup, ref)
		}
		if w.perBatch || i < sz.setups-1 {
			if err := closeTop(); err != nil {
				return nil, err
			}
		}
	}

	// Start the load from a collected heap: the reference run leaves
	// gigabytes of garbage and freed pages the collector and the scavenger
	// would otherwise work through inside the first measured batches.
	runtime.GC()
	debug.FreeOSMemory()

	minBatches := 1
	if o.trace {
		minBatches = 2 // one untraced, one traced
	}
	var batches []batch
	var first []*core.Study
	loopStart := time.Now()
	for i := 0; i < minBatches || time.Since(loopStart) < o.seconds; i++ {
		cfgs := cfgs0
		if !w.same {
			cfgs = w.configs(sz, o.seed, i)
		}
		if w.perBatch {
			t, d, _, err := r.setup(cfgs)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			top = t
			setups = append(setups, d.Seconds())
		}
		b := r.submit(top, cfgs, o.trace && i%2 == 1)
		if w.perBatch {
			if err := closeTop(); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			first = b.studies
		}
		if ref != nil {
			verify(&b, ref)
			b.studies, b.cfgs = nil, nil
		}
		batches = append(batches, b)
	}
	if top != nil {
		if err := closeTop(); err != nil {
			return nil, err
		}
	}
	if ref == nil {
		// Distinct configs per batch: one in-process run covers them all.
		var all []core.Config
		for _, b := range batches {
			all = append(all, b.cfgs...)
		}
		want, err := reference(all, fleetSlots, nil)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		for i := range batches {
			b := &batches[i]
			verify(b, want[:len(b.cfgs)])
			want = want[len(b.cfgs):]
		}
		ref = first
	}

	var points int
	var dur, cpu time.Duration
	var alloc uint64
	var lat sample
	var hits, misses, coalesced, retries int
	for _, b := range batches {
		points += b.points
		dur += b.dur
		cpu += b.cpu
		alloc += b.alloc
		lat = append(lat, b.lat...)
		hits += b.hits
		misses += b.misses
		coalesced += b.coalesced
		retries += b.retries
	}
	q, tail := lat.tail()
	logf("workload=%s seed=%d batches=%d points=%d measured=%.3fs traced=%v",
		w.name, o.seed, len(batches), points, dur.Seconds(), o.trace)
	logf("latency_ms_tail is p%g of %d samples; setup_s is the median of %d set-ups",
		100*q, len(lat), len(setups))
	logf("fail_ratio %g (%d failed of %d attempted); cache %d hits, %d misses, %d coalesced, %d retries",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, hits, misses, coalesced, retries)

	values := map[string]float64{}
	defs := endToEnd
	if !o.trace {
		values["points_per_s"] = float64(points) / dur.Seconds()
		values["latency_ms_p50"] = lat.median()
		values["latency_ms_tail"] = tail
		values["cpu_ms_per_point"] = ms(cpu) / float64(points)
		values["alloc_mb_per_point"] = float64(alloc) / 1e6 / float64(points)
		values["setup_s"] = setups.median()
	} else {
		defs = perLayer
		values["studysvc.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		values["studysvc.coalesced"] = float64(coalesced)
		values["studysvc.retries"] = float64(retries)
		if err := r.layerMetrics(values, batches); err != nil {
			return nil, err
		}
		if err := r.breakdownMetrics(values, cfgs0, first); err != nil {
			res.Failed++
			problems = append(problems, err.Error())
		}
		if err := probeMetrics(values, sz, cfgs0, ref); err != nil {
			return nil, err
		}
		if o.traceDir != "" {
			// One file per workload: each traced run replaces the last.
			path := filepath.Join(o.traceDir, w.name+".jsonl")
			if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
				return nil, err
			}
			if err := r.rec.write(path); err != nil {
				return nil, err
			}
			logf("spans written to %s", path)
		}
	}
	if err := res.fill(defs, values); err != nil {
		return nil, err
	}
	for _, p := range problems {
		logf("CHECK FAILED: %s", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, nil
}

// layerMetrics derives the studysvc host-clock metrics from the spans of
// the traced batches, and the tracing overhead from both kinds of batch.
func (r *run) layerMetrics(values map[string]float64, batches []batch) error {
	runs := r.rec.named("studysvc.worker.run")
	spans := r.rec.byID()
	type pointKey struct {
		batch int64
		point string
	}
	arrived := map[pointKey]span{}
	for _, s := range r.rec.named("client.point") {
		arrived[pointKey{s.Batch, s.Point}] = s
	}
	var run, wait, deliver sample
	for _, s := range runs {
		run = append(run, ms(s.dur()))
		if root, ok := spans[s.Parent]; ok {
			wait = append(wait, ms(time.Duration(s.Start-root.Start)))
		}
		if a, ok := arrived[pointKey{s.Batch, s.Point}]; ok {
			deliver = append(deliver, ms(time.Duration(a.End-s.End)))
		}
	}
	values["studysvc.worker_run_ms_p50"] = run.median()
	values["studysvc.worker_run_ms_sum"] = run.sum()
	values["studysvc.worker_run_count"] = float64(len(run))
	values["studysvc.queue_wait_ms_p50"] = wait.median()
	values["studysvc.deliver_ms_p50"] = deliver.median()

	var pts [2]int
	var dur [2]time.Duration
	for _, b := range batches {
		k := 0
		if b.traced {
			k = 1
		}
		pts[k] += b.points
		dur[k] += b.dur
	}
	if dur[0] == 0 || dur[1] == 0 {
		return errors.New("a traced run needs traced and untraced batches")
	}
	values["trace.overhead_points_per_s"] = float64(pts[1])/dur[1].Seconds() - float64(pts[0])/dur[0].Seconds()
	values["trace.spans"] = float64(len(spans))
	return nil
}

// breakdownMetrics re-executes a seed-chosen sample of the first batch's
// points outside the service and reports each phase's mean cost. Workloads
// that simulate nothing report zeros.
func (r *run) breakdownMetrics(values map[string]float64, cfgs []core.Config, got []*core.Study) error {
	names := []string{"cluster.testbed_build", "ior.env_setup", "ior.write", "ior.read", "cluster.shutdown"}
	for _, n := range names {
		values[n+"_ms"], values[n+"_alloc_mb"] = 0, 0
	}
	values["ior.write_virtual_s"], values["ior.read_virtual_s"], values["breakdown.points"] = 0, 0, 0
	k := r.w.breakdown(r.sz)
	if k == 0 {
		return nil
	}
	if got == nil {
		return errors.New("point breakdown: the first batch returned no studies")
	}
	_, jobs := core.Decompose(cfgs)
	rng := rand.New(rand.NewPCG(r.seed, 0xB5EA))
	var sample []core.PointJob
	var pts []core.Point
	for _, i := range rng.Perm(len(jobs))[:min(k, len(jobs))] {
		j := jobs[i]
		sample = append(sample, j)
		pts = append(pts, got[j.Study].Series[j.Series].Points[j.Index])
	}
	b, err := pointBreakdown(sample, pts)
	if err != nil {
		return err
	}
	n := float64(b.points)
	for i, c := range []cost{b.build, b.env, b.write, b.read, b.shut} {
		values[names[i]+"_ms"] = ms(c.host) / n
		values[names[i]+"_alloc_mb"] = float64(c.alloc) / 1e6 / n
	}
	values["ior.write_virtual_s"] = b.writeVirtual.Seconds() / n
	values["ior.read_virtual_s"] = b.readVirtual.Seconds() / n
	values["breakdown.points"] = n
	return nil
}

// probeMetrics runs the service and stack probes.
func probeMetrics(values map[string]float64, sz size, cfgs []core.Config, ref []*core.Study) error {
	sp, err := probeService(cfgs, ref)
	if err != nil {
		return err
	}
	values["core.key_us"] = sp.keyUS
	values["cache.mem_get_us"] = sp.memGetUS
	values["cache.mem_put_us"] = sp.memPutUS
	values["cache.disk_load_us"] = sp.diskLoadUS
	values["cache.disk_store_us"] = sp.diskStoreUS
	values["jobstore.append_point_us"] = sp.appendUS
	values["jobstore.open_ms"] = sp.openMS
	values["studysvc.ndjson_encode_us"] = sp.encodeUS
	values["studysvc.ndjson_decode_us"] = sp.decodeUS

	// Host times of one pass swing with the garbage collector; report the
	// median of several passes. Virtual times and allocations repeat.
	const passes = 3
	var runs [passes][]layerProbe
	for i := range runs {
		if runs[i], err = stackProbes(sz.probeOps, sz.probeXfer); err != nil {
			return err
		}
	}
	layers := runs[0]
	for i := range layers {
		var w, r sample
		for _, ps := range runs {
			w = append(w, ps[i].write.hostUS)
			r = append(r, ps[i].read.hostUS)
		}
		layers[i].write.hostUS, layers[i].read.hostUS = w.median(), r.median()
	}
	byName := map[string]layerProbe{}
	for _, l := range layers {
		byName[l.name] = l
	}
	for _, l := range layers {
		below := byName[l.below]
		for _, ph := range []struct {
			name     string
			c, under layerCost
		}{{"write", l.write, below.write}, {"read", l.read, below.read}} {
			key := l.name + "." + ph.name
			values[key+"_us_per_op"] = ph.c.hostUS
			values[key+"_alloc_kb_per_op"] = ph.c.allocKB
			values[key+"_virtual_us_per_op"] = ph.c.virtualUS
			if l.below != "" {
				values[key+"_self_us_per_op"] = ph.c.hostUS - ph.under.hostUS
			}
		}
	}
	return nil
}

// memoryLimit is the heap size the collector keeps the process under. The
// largest paper point holds 2 GiB of written data; without a limit the
// collector's default pacing lets the heap grow to twice that.
const memoryLimit = 3 << 30

func main() {
	debug.SetMemoryLimit(memoryLimit)
	// One P: the client, the in-process daosds and the collector take turns
	// on one thread, so a goroutine hand-off never waits for the host to
	// wake a second vCPU and no idle thread spins looking for work. The
	// paper grid simulates on one slot anyway; on a shared host a second P
	// measured the host's scheduler more than the program.
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are derived from")
	seconds := fs.Float64("seconds", 10, "how long the load runs, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory a traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and positive --seconds\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := execute(options{
		w: w, sz: fullSize, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1, traceDir: *traceDir, log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
