package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"daosim/internal/cache"
	"daosim/internal/sim"
)

// StudyRunner executes batches of study sweeps. Runner is the in-process
// implementation; internal/studysvc's Client satisfies the same interface by
// routing the identical point grid through a daosd study server, so any
// caller (the bench experiments, the figures command) can swap execution
// backends without observing a difference in results.
type StudyRunner interface {
	Run(cfg Config) (*Study, error)
	RunAll(cfgs []Config) ([]*Study, error)
}

var _ StudyRunner = (*Runner)(nil)

// Runner executes study sweeps on a bounded worker pool. Every
// (variant, node-count) point of a study is an independent simulation on its
// own testbed, so points fan out across OS threads; per-point seeds are
// derived deterministically from the study seed (see pointSeed), which makes
// parallel and sequential runs byte-identical.
type Runner struct {
	// Parallelism bounds the number of points simulated concurrently
	// across the whole batch, and when set explicitly it overrides any
	// per-Config bound. When zero or negative, the strictest positive
	// Config.Parallelism in the batch applies, and failing that
	// runtime.GOMAXPROCS(0).
	Parallelism int

	// Cache, when non-nil, memoizes completed points by the content hash
	// of every output-affecting input (see pointKey). A hit replays the
	// point's bandwidths without simulating; output is byte-identical to
	// an uncached run because points are pure functions of their key.
	// Failed points are never cached. The cache may be shared across
	// Runners and batches — identical keys mean identical physics.
	Cache *cache.Cache
}

// Run executes one study sweep.
func (r *Runner) Run(cfg Config) (*Study, error) {
	studies, err := r.RunAll([]Config{cfg})
	return studies[0], err
}

// PointJob is the unit of study work: one (variant, node-count) grid cell
// with its deterministically derived seed and the coordinates of the result
// slot it fills (studies[Study].Series[Series].Points[Index]). It is what a
// scheduler — the in-process Runner or a daosd worker fleet — dispatches,
// and it carries everything needed to execute the point or compute its
// cache key, so any executor anywhere produces the identical Point.
type PointJob struct {
	// Study, Series, Index locate the result slot in the batch returned by
	// Decompose.
	Study, Series, Index int
	// Cfg is the defaulted study configuration the point belongs to.
	Cfg Config
	// Variant and Nodes are the grid cell.
	Variant Variant
	Nodes   int
	// Seed is the point's derived testbed seed (see PointSeed).
	Seed uint64
}

// Decompose normalizes a batch of study configs (applying Defaults to a
// copy; the input is not mutated) and expands it into pre-allocated result
// Studies plus the flat list of point jobs that fills them. It is the
// single decomposition used by every execution path — Runner.RunAll here,
// and the studysvc server and client on both ends of the wire — so the
// grid shape, slot order, and derived seeds can never diverge between
// backends.
func Decompose(cfgs []Config) ([]*Study, []PointJob) {
	studies := make([]*Study, len(cfgs))
	var jobs []PointJob
	for i := range cfgs {
		cfg := cfgs[i]
		cfg.Defaults()
		st := &Study{Config: cfg, Series: make([]Series, len(cfg.Variants))}
		for vi, v := range cfg.Variants {
			st.Series[vi] = Series{Variant: v, Points: make([]Point, len(cfg.Nodes))}
			for ni, n := range cfg.Nodes {
				jobs = append(jobs, PointJob{
					Study: i, Series: vi, Index: ni,
					Cfg: cfg, Variant: v, Nodes: n,
					Seed: PointSeed(cfg.Seed, vi, n),
				})
			}
		}
		studies[i] = st
	}
	return studies, jobs
}

// Execute simulates the job's point on a cold kernel and returns it with
// grid coordinates, wall-clock, and any failure filled in. It is a pure
// function of the job: two executions of the same job — in this process or
// another — return Points with identical measured fields.
func (j PointJob) Execute() Point { return j.ExecuteIn(nil) }

// ExecuteIn is Execute with the point's simulation kernel drawn from arena:
// consecutive calls on one arena reuse the event-heap storage, event and
// flow pools, RNG, and process-coroutine arena of the previous point
// instead of rebuilding them. A nil arena builds a cold kernel. Measured
// fields are byte-identical on every path — the executor owning a long-
// lived worker (the Runner's pool, a studysvc worker slot) holds one arena
// per worker for its lifetime.
func (j PointJob) ExecuteIn(arena *sim.Arena) Point {
	t0 := time.Now()
	pt, err := runPoint(j.Cfg, j.Variant, j.Nodes, j.Seed, arena)
	pt.Nodes = j.Nodes
	pt.Ranks = j.Nodes * j.Cfg.PPN
	pt.Elapsed = time.Since(t0)
	if err != nil {
		pt.Err = err.Error()
	}
	return pt
}

// FromEntry reconstructs the job's Point from its memoized cache entry,
// exactly as Execute would have measured it (Elapsed is the replay cost,
// which never reaches Table or CSV).
func (j PointJob) FromEntry(e cache.Entry) Point {
	return Point{
		Nodes:          j.Nodes,
		Ranks:          j.Nodes * j.Cfg.PPN,
		WriteGiBs:      e.WriteGiBs,
		ReadGiBs:       e.ReadGiBs,
		DegradedGiBs:   e.DegradedGiBs,
		RecoverySec:    e.RecoverySec,
		MapTransitions: int(e.MapTransitions),
	}
}

// CacheEntry returns the cache entry memoizing this point. Callers must not
// cache failed points (Point.Err non-empty): an error is not a measurement.
func (p Point) CacheEntry() cache.Entry {
	return cache.Entry{
		WriteGiBs:      p.WriteGiBs,
		ReadGiBs:       p.ReadGiBs,
		DegradedGiBs:   p.DegradedGiBs,
		RecoverySec:    p.RecoverySec,
		MapTransitions: int64(p.MapTransitions),
	}
}

// PointErrors is the error a sweep returns when it ran to completion but
// some points recorded failures: every study is populated (failed points
// carry their message in Point.Err), and Count says how many points failed.
// It renders identically to the joined per-point errors, so callers that
// only print it see no difference — but callers that need to distinguish
// "the sweep finished with bad points" from "the sweep never finished"
// (transport failure, truncated stream) can errors.As for it. cmd/studyctl
// uses exactly that split for its exit codes.
type PointErrors struct {
	// Count is the number of failed points joined in Err.
	Count int
	// Err is the joined per-point failures, in grid order, formatted
	// exactly as Runner.RunAll has always reported them.
	Err error
}

// Error implements error, rendering the joined point failures verbatim.
func (e *PointErrors) Error() string { return e.Err.Error() }

// Unwrap exposes the joined per-point errors to errors.Is/As.
func (e *PointErrors) Unwrap() error { return e.Err }

// Finish completes a Decompose batch after every job's Point has been
// stored: it stamps the batch wall-clock on each study and joins the point
// failures in grid order, formatted exactly as Runner.RunAll reports them.
// A non-nil return is always a *PointErrors.
func Finish(studies []*Study, elapsed time.Duration) error {
	var errs []error
	for _, st := range studies {
		st.Elapsed = elapsed
		for _, s := range st.Series {
			for _, pt := range s.Points {
				if pt.Err != "" {
					errs = append(errs, fmt.Errorf("core: %s @%d nodes: %s", s.Variant.Label, pt.Nodes, pt.Err))
				}
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return &PointErrors{Count: len(errs), Err: errors.Join(errs...)}
}

// RunAll executes several independent study sweeps on one shared worker
// pool, so small studies (single-point ablations, per-size sweeps) still fill
// every core. Studies come back in input order, fully populated: a failed
// point records its error in Point.Err instead of aborting the batch, and
// the returned error joins every point failure (nil if all points succeeded).
func (r *Runner) RunAll(cfgs []Config) ([]*Study, error) {
	studies, jobs := Decompose(cfgs)

	workers := r.Parallelism
	if workers <= 0 {
		// Honor the strictest explicit per-Config bound: a config that
		// asked for a narrow pool (memory, sequential timing) must not be
		// widened by being batched with others.
		for i := range cfgs {
			if p := cfgs[i].Parallelism; p > 0 && (workers <= 0 || p < workers) {
				workers = p
			}
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// One kernel arena per pool worker, held for the whole batch: each
	// worker executes its points serially on recycled kernel state (event
	// heap, pools, process goroutines) instead of rebuilding a Sim per
	// point. Results are unaffected — point seeds, not execution state,
	// determine every measured number — and the arenas drain before RunAll
	// returns, so repeated batches leave no goroutines behind.
	arenas := make([]*sim.Arena, workers)
	for i := range arenas {
		arenas[i] = sim.NewArena()
	}
	start := time.Now()
	mapN(workers, len(jobs), func(w, i int) {
		j := jobs[i]
		// Each job owns a distinct Points slot, so no locking.
		studies[j.Study].Series[j.Series].Points[j.Index] = r.runJob(arenas[w], j)
	})
	for _, a := range arenas {
		a.Drain()
	}
	return studies, Finish(studies, time.Since(start))
}

// runJob measures one sweep point on the worker's arena, consulting the
// Runner's cache first. On a miss the simulated result is stored so later
// sweeps over the same configuration replay it.
func (r *Runner) runJob(arena *sim.Arena, j PointJob) Point {
	if r.Cache == nil {
		return j.ExecuteIn(arena)
	}
	t0 := time.Now()
	k := j.Key()
	if e, ok := r.Cache.Get(k); ok {
		pt := j.FromEntry(e)
		pt.Elapsed = time.Since(t0)
		return pt
	}
	pt := j.ExecuteIn(arena)
	if pt.Err == "" {
		r.Cache.Put(k, pt.CacheEntry())
	}
	pt.Elapsed = time.Since(t0)
	return pt
}

// Map runs n independent jobs on the Runner's worker pool and joins their
// errors. It is the generic fan-out for simulations that are not Config
// grids (e.g. the bench native-array points), sharing the Runner's pool
// width so mixed batches stay within one concurrency bound.
func (r *Runner) Map(n int, fn func(i int) error) error {
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	mapN(workers, n, func(_, i int) { errs[i] = fn(i) })
	return errors.Join(errs...)
}

// mapN runs fn(0..n-1) on a pool of at most workers goroutines and waits
// for all of them. fn additionally receives the index of the pool worker
// running it, so callers can give each worker private reusable state (the
// Runner's kernel arenas) without locking.
func mapN(workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				fn(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// PointSeed derives the testbed seed for one sweep point from the study seed,
// the variant index, and the client-node count, via two rounds of splitmix64.
// Points therefore get decorrelated, reproducible seeds that do not depend on
// execution order — the property that makes parallel and sequential sweeps
// byte-identical.
func PointSeed(base uint64, variant, nodes int) uint64 {
	x := splitmix64(base + 0xA24BAED4963EE407*uint64(variant+1))
	x = splitmix64(x + 0x9FB21C651E98DF25*uint64(nodes+1))
	if x == 0 {
		x = 1 // the simulator RNG remaps zero; keep seeds in its injective range
	}
	return x
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.), the standard
// mixer for deriving independent seeds from a counter-like state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
