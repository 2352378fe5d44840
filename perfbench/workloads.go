package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/ior"
	"daosim/internal/placement"
	"daosim/internal/studysvc"
)

// size is the geometry of every workload. fullSize is what the benchmark
// measures; the self-tests use a tiny one.
type size struct {
	// The paper grid (paper-cold, service-warm).
	nodes           []int
	ppn             int
	block, transfer int64
	claims          bool // check the paper's claims on paper-cold's grid
	// service-warm's grid: the paper's 40 points at smaller blocks. No
	// point simulates while it is measured, so the block size changes
	// nothing it measures; small blocks only make the in-process run that
	// fills its cache quick.
	warmBlock, warmTransfer int64
	// fleet-small-cold: configs per batch (four points each) and geometry.
	fleetConfigs              int
	fleetBlock, fleetTransfer int64
	// Points re-executed for the traced point breakdown.
	breakdownPaper, breakdownFleet int
	// Stack probes: operations per layer and bytes per operation.
	probeOps  int
	probeXfer int64
	// setups is how many times a run sets its topology up.
	setups int
}

var fullSize = size{
	nodes: []int{1, 2, 4, 8, 16}, ppn: 8, block: 16 << 20, transfer: 2 << 20, claims: true,
	warmBlock: 1 << 20, warmTransfer: 256 << 10,
	fleetConfigs: 50, fleetBlock: 1 << 20, fleetTransfer: 256 << 10,
	breakdownPaper: 2, breakdownFleet: 8,
	probeOps: 64, probeXfer: 2 << 20,
	setups: 41,
}

// workload is one load the benchmark can run. Every workload is a closed
// loop with one client: the next batch is submitted when the previous
// batch's trailer has arrived, as figures -server and studyctl submit do.
type workload struct {
	name string
	// configs returns batch i's study configs.
	configs func(sz size, seed uint64, i int) []core.Config
	// same: every batch submits the same configs, so one reference serves
	// all of them and is computed before the load starts.
	same bool
	// perBatch: every batch gets its own fresh topology, so the cache is
	// cold for each.
	perBatch bool
	// warm: every lookup must hit; otherwise none may.
	warm bool
	// claims: every batch must pass the paper's eight claims.
	claims bool
	// start sets the topology up.
	start func(r *run) (*topology, error)
	// breakdown is how many points the traced run re-executes.
	breakdown func(sz size) int
}

var workloads = []workload{
	{
		name: "paper-cold", configs: paperConfigs, same: true, perBatch: true, claims: true,
		start:     func(r *run) (*topology, error) { return paperTopology(r.rec, r.onPoint) },
		breakdown: func(sz size) int { return sz.breakdownPaper },
	},
	{
		name: "service-warm", configs: warmConfigs, same: true, warm: true,
		start:     func(r *run) (*topology, error) { return warmTopology(r.warmCache, r.rec, r.onPoint) },
		breakdown: func(size) int { return 0 },
	},
	{
		name: "fleet-small-cold", configs: fleetConfigs,
		start:     func(r *run) (*topology, error) { return fleetTopology(r.rec, r.onPoint) },
		breakdown: func(sz size) int { return sz.breakdownFleet },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperConfigs is the paper's evaluation grid: Figure 1 (easy, five
// variants) and Figure 2 (hard, three variants) over the node axis.
func paperConfigs(sz size, seed uint64, _ int) []core.Config {
	base := core.Config{
		Nodes: sz.nodes, PPN: sz.ppn, BlockSize: sz.block, TransferSize: sz.transfer,
		Seed: core.PointSeed(seed, 0, 0),
	}
	easy, hard := base, base
	easy.Workload, easy.Variants = "easy", core.EasyVariants()
	hard.Workload, hard.Variants = "hard", core.HardVariants()
	return []core.Config{easy, hard}
}

// warmConfigs is the paper grid at service-warm's block and transfer size.
func warmConfigs(sz size, seed uint64, i int) []core.Config {
	sz.block, sz.transfer = sz.warmBlock, sz.warmTransfer
	return paperConfigs(sz, seed, i)
}

// fleetConfigs is batch i of small single-node points: every config
// measures the four interfaces at one seed-chosen object class and access
// mode, under its own seed, so no point repeats within a run.
func fleetConfigs(sz size, seed uint64, i int) []core.Config {
	classes := []placement.ClassID{placement.S1, placement.S2, placement.SX}
	cfgs := make([]core.Config, sz.fleetConfigs)
	for k := range cfgs {
		s := core.PointSeed(seed, 1+i, k)
		class := classes[s%3]
		mode := "easy"
		if s>>8%2 == 1 {
			mode = "hard"
		}
		cfgs[k] = core.Config{
			Workload: mode, Nodes: []int{1}, PPN: 2,
			BlockSize: sz.fleetBlock, TransferSize: sz.fleetTransfer,
			Seed: s,
			Variants: []core.Variant{
				{Label: "dfs", API: ior.APIDFS, Class: class},
				{Label: "posix (dfuse)", API: ior.APIPosix, Class: class},
				{Label: "mpiio (dfuse)", API: ior.APIMPIIO, Class: class},
				{Label: "hdf5 (dfuse)", API: ior.APIHDF5, Class: class},
			},
		}
	}
	return cfgs
}

// paperSlots is how many paper-grid points simulate at once. A 16-node
// point keeps its 2 GiB of written data live until it ends, so a second
// slot would double the benchmark's peak memory; one slot keeps it near
// 3 GiB (see memoryLimit).
const paperSlots = 1

// fleetSlots is fleet-small-cold's execution width: two worker daosds with
// one slot each.
const fleetSlots = 2

// reference runs cfgs in process through core.Runner with as many slots as
// the workload's servers simulate on; c, when non-nil, keeps the simulated
// points.
func reference(cfgs []core.Config, slots int, c *cache.Cache) ([]*core.Study, error) {
	return (&core.Runner{Parallelism: slots, Cache: c}).RunAll(cfgs)
}

// batch is one measured submission.
type batch struct {
	cfgs    []core.Config
	studies []*core.Study // kept only until verified
	err     error
	points  int
	traced  bool

	dur   time.Duration // submit to trailer
	cpu   time.Duration // process user+sys over the submission
	alloc uint64        // bytes allocated over the submission
	// lat is the latency of each point (cold) or of the batch (warm), ms.
	lat sample

	hits, misses, coalesced, retries int
}

// run is the state of one benchmark run.
type run struct {
	w    workload
	sz   size
	seed uint64
	rec  *recorder // nil when untraced

	warmCache *cache.Cache
	submitAt  time.Time
	arrivals  []time.Time
}

// onPoint is the client's OnPoint hook: it notes each point's arrival and,
// in a traced batch, records it as a span from the batch's submit.
func (r *run) onPoint(sp studysvc.StreamPoint) {
	now := time.Now()
	r.arrivals = append(r.arrivals, now)
	if r.rec.active() {
		r.rec.add("client.point", pointName(sp.Study, sp.Series, sp.Index), r.submitAt, now)
	}
}

// setup starts the workload's topology and, for service-warm, lets lazy
// set-up finish with one unmeasured batch. It returns the topology, the
// time it took, and the warm-up batch (nil when there is none).
func (r *run) setup(cfgs []core.Config) (*topology, time.Duration, *batch, error) {
	t0 := time.Now()
	top, err := r.w.start(r)
	if err != nil {
		top.close()
		return nil, 0, nil, err
	}
	var warmup *batch
	if r.w.warm {
		b := r.submit(top, cfgs, false)
		if b.err != nil {
			top.close()
			return nil, 0, nil, b.err
		}
		warmup = &b
	}
	return top, time.Since(t0), warmup, nil
}

// submit sends one batch and waits for its trailer.
func (r *run) submit(top *topology, cfgs []core.Config, traced bool) batch {
	b := batch{cfgs: cfgs, traced: traced}
	var root int64
	if traced {
		root = r.rec.begin()
	}
	l0 := top.client.Ledger()
	r.arrivals = r.arrivals[:0]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	r.submitAt = t0
	b.studies, b.err = top.client.Submit(context.Background(), cfgs)
	t1 := time.Now()
	b.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if traced {
		r.rec.end(root, t0, t1)
	}
	b.dur = t1.Sub(t0)
	b.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	_, jobs := core.Decompose(cfgs)
	b.points = len(jobs)
	if r.w.warm {
		b.lat = sample{ms(b.dur)}
	} else {
		for _, a := range r.arrivals {
			b.lat = append(b.lat, ms(a.Sub(t0)))
		}
	}
	l1 := top.client.Ledger()
	b.hits, b.misses = l1.CacheHits-l0.CacheHits, l1.CacheMisses-l0.CacheMisses
	b.coalesced, b.retries = l1.Coalesced-l0.Coalesced, l1.Retries-l0.Retries
	return b
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check verifies one batch: the transport succeeded, every point's CSV is
// byte-identical to the in-process reference, the cache behaved as the
// workload requires, and on the paper grid every claim holds. It returns
// how many of the batch's points count as failed, and why.
func (r *run) check(b *batch, ref []*core.Study) (int, error) {
	if b.err != nil {
		return b.points, fmt.Errorf("submit: %w", b.err)
	}
	if bad, err := compareStudies(b.studies, ref); err != nil {
		return bad, err
	}
	if r.w.warm && b.misses != 0 {
		return b.points, fmt.Errorf("warm batch missed the cache %d times", b.misses)
	}
	if !r.w.warm && b.hits != 0 {
		return b.points, fmt.Errorf("cold batch hit the cache %d times", b.hits)
	}
	if r.w.claims && r.sz.claims {
		if failed := failedClaims(b.studies); len(failed) > 0 {
			return b.points, fmt.Errorf("paper claims failed: %v", failed)
		}
	}
	return 0, nil
}

// compareStudies reports a mismatch between got and want, counting the
// mismatched or failed points: the CSV of every study must be
// byte-identical and no point may carry an error.
func compareStudies(got, want []*core.Study) (int, error) {
	if len(got) != len(want) {
		return countPoints(want), fmt.Errorf("got %d studies, want %d", len(got), len(want))
	}
	bad := 0
	var first error
	for i := range got {
		for _, s := range got[i].Series {
			for _, pt := range s.Points {
				if pt.Err != "" {
					bad++
					if first == nil {
						first = fmt.Errorf("study %d series %q: point failed: %s", i, s.Variant.Label, pt.Err)
					}
				}
			}
		}
		if got[i].CSV() != want[i].CSV() {
			bad += want[i].NumPoints()
			if first == nil {
				first = fmt.Errorf("study %d: CSV differs from the in-process run", i)
			}
		}
	}
	return bad, first
}

func countPoints(studies []*core.Study) int {
	n := 0
	for _, st := range studies {
		n += st.NumPoints()
	}
	return n
}

// failedClaims checks the paper's eight claims on a Figure 1 + Figure 2
// batch and returns the names of those that fail.
func failedClaims(studies []*core.Study) []string {
	if len(studies) != 2 {
		return []string{"batch is not the paper grid"}
	}
	claims := studies[0].CheckEasyClaims()
	claims = append(claims, studies[1].CheckHardClaims()...)
	claims = append(claims, core.CheckCrossClaims(studies[0], studies[1])...)
	var failed []string
	for _, c := range claims {
		if !c.Pass {
			failed = append(failed, c.Name)
		}
	}
	if len(claims) != 8 {
		failed = append(failed, fmt.Sprintf("%d claims checked, want 8", len(claims)))
	}
	return failed
}
