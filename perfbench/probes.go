package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"daosim/internal/cache"
	"daosim/internal/cluster"
	"daosim/internal/core"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/engine"
	"daosim/internal/fabric"
	"daosim/internal/hdf5"
	"daosim/internal/ior"
	"daosim/internal/jobstore"
	"daosim/internal/mpi"
	"daosim/internal/mpiio"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/studysvc"
	"daosim/internal/vos"
)

// meter measures host time and heap allocation between laps.
type meter struct {
	t    time.Time
	a, n uint64
}

// cost is one lap's host time, allocated bytes and allocated objects.
type cost struct {
	host          time.Duration
	alloc, allocs uint64
}

func (c cost) plus(o cost) cost {
	return cost{c.host + o.host, c.alloc + o.alloc, c.allocs + o.allocs}
}

func (c cost) minus(o cost) cost {
	d := cost{host: c.host - o.host}
	if c.alloc > o.alloc {
		d.alloc = c.alloc - o.alloc
	}
	if c.allocs > o.allocs {
		d.allocs = c.allocs - o.allocs
	}
	return d
}

func newMeter() *meter {
	m := &meter{}
	m.lap()
	return m
}

// lap returns the cost since the previous lap.
func (m *meter) lap() cost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now()
	c := cost{host: now.Sub(m.t), alloc: ms.TotalAlloc - m.a, allocs: ms.Mallocs - m.n}
	m.t, m.a, m.n = now, ms.TotalAlloc, ms.Mallocs
	return c
}

// pointRun is one re-execution of a point outside the service, split at the
// calls into cluster and ior.
type pointRun struct {
	build, env, run, shutdown cost
	res                       *ior.Result
}

// reexecute runs job j through cluster.New, ior.NewEnv and ior.Run with
// the phases selected, exactly as a study worker runs it.
func reexecute(j core.PointJob, write, read bool) (pointRun, error) {
	var pr pointRun
	tbCfg := j.Cfg.Testbed
	tbCfg.Seed = j.Seed
	// Start both runs of a point from a collected heap, so the collector's
	// work lands alike in each and the read phase, their difference, is
	// not swamped by it.
	runtime.GC()
	m := newMeter()
	tb := cluster.New(tbCfg)
	pr.build = m.lap()
	var runErr error
	tb.Run(func(p *sim.Proc) {
		pr.build = pr.build.plus(m.lap())
		env, err := ior.NewEnv(p, tb, j.Nodes, j.Cfg.PPN)
		pr.env = m.lap()
		if err != nil {
			runErr = err
			return
		}
		pr.res, runErr = ior.Run(p, env, ior.Config{
			API:          j.Variant.API,
			FilePerProc:  j.Cfg.Workload == "easy",
			BlockSize:    j.Cfg.BlockSize,
			TransferSize: j.Cfg.TransferSize,
			Segments:     j.Cfg.Segments,
			Iterations:   j.Cfg.Iterations,
			DoWrite:      write,
			DoRead:       read,
			ReorderTasks: true,
			Class:        j.Variant.Class,
			Collective:   j.Variant.Collective,
		})
		pr.run = m.lap()
	})
	pr.run = pr.run.plus(m.lap())
	tb.Shutdown()
	pr.shutdown = m.lap()
	return pr, runErr
}

// breakdown is the mean per-point cost of each phase over the re-executed
// sample, with the virtual time the simulated phases took.
type breakdown struct {
	points                        int
	build, env, write, read, shut cost
	writeVirtual, readVirtual     time.Duration
}

// pointBreakdown re-executes each job write-only and then write+read; the
// read phase is the difference. The write+read run must reproduce the
// bandwidths daosd returned for the point (got), or the breakdown would not
// measure the same program.
func pointBreakdown(jobs []core.PointJob, got []core.Point) (breakdown, error) {
	var b breakdown
	for i, j := range jobs {
		w, err := reexecute(j, true, false)
		if err != nil {
			return b, fmt.Errorf("re-execute write-only: %w", err)
		}
		wr, err := reexecute(j, true, true)
		if err != nil {
			return b, fmt.Errorf("re-execute write+read: %w", err)
		}
		if wr.res.Write.MaxGiBs != got[i].WriteGiBs || wr.res.Read.MaxGiBs != got[i].ReadGiBs {
			return b, fmt.Errorf("replica of %s at %d nodes: %v/%v GiB/s, daosd returned %v/%v",
				j.Variant.Label, j.Nodes, wr.res.Write.MaxGiBs, wr.res.Read.MaxGiBs, got[i].WriteGiBs, got[i].ReadGiBs)
		}
		b.points++
		b.build = b.build.plus(wr.build)
		b.env = b.env.plus(wr.env)
		b.write = b.write.plus(w.run)
		b.read = b.read.plus(wr.run.minus(w.run))
		b.shut = b.shut.plus(wr.shutdown)
		b.writeVirtual += wr.res.Write.Times[0]
		b.readVirtual += wr.res.Read.Times[0]
	}
	return b, nil
}

// layerCost is one layer's mean cost per operation. allocs, the number of
// heap objects, is exact where allocKB is not: the runtime accounts tiny
// objects by the block.
type layerCost struct {
	hostUS, allocKB, virtualUS, allocs float64
}

// layerProbe is one layer's canned write-then-read pattern. below names the
// layer it calls into, whose cost is subtracted for the self time.
type layerProbe struct {
	name, below string
	write, read layerCost
}

// measure runs fn, which performs ops operations, and returns their mean
// cost; now is the virtual clock (nil for layers outside the simulator).
func measure(ops int, now func() time.Duration, fn func() error) (layerCost, error) {
	var v0 time.Duration
	if now != nil {
		v0 = now()
	}
	m := newMeter()
	if err := fn(); err != nil {
		return layerCost{}, err
	}
	c := m.lap()
	n := float64(ops)
	lc := layerCost{hostUS: us(c.host) / n, allocKB: float64(c.alloc) / 1024 / n, allocs: float64(c.allocs) / n}
	if now != nil {
		lc.virtualUS = us(now()-v0) / n
	}
	return lc, nil
}

// writeRead measures ops calls of write and then ops calls of read.
func writeRead(ops int, now func() time.Duration, write, read func(i int) error) (w, r layerCost, err error) {
	loop := func(op func(int) error) func() error {
		return func() error {
			for i := 0; i < ops; i++ {
				if err := op(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if w, err = measure(ops, now, loop(write)); err != nil {
		return w, r, err
	}
	r, err = measure(ops, now, loop(read))
	return w, r, err
}

// stackProbes writes ops transfers of xfer bytes and reads them back with
// a nil destination through every layer of the simulated stack, one layer
// per fresh testbed, from one rank (two for collective MPI-I/O) at S2.
func stackProbes(ops int, xfer int64) ([]layerProbe, error) {
	buf := bytes.Repeat([]byte{0xA5}, int(xfer))
	off := func(i int) int64 { return int64(i) * xfer }
	opts := dfs.CreateOpts{Class: placement.S2}

	// VOS: the extent tree alone, outside the simulator.
	tree := vos.NewExtentTree()
	w, r, _ := writeRead(ops, nil,
		func(i int) error { tree.Insert(off(i), vos.Epoch(i+1), buf); return nil },
		func(i int) error { tree.ReadInto(nil, off(i), int(xfer), vos.Epoch(ops)); return nil })
	out := []layerProbe{{name: "vos", write: w, read: r}}
	tree = nil

	type body func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (w, r layerCost, err error)
	probes := []struct {
		name, below string
		run         body
	}{
		{"daos", "vos", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (w, r layerCost, err error) {
			obj, err := ct.OpenObject(p, ct.AllocOID(placement.S2))
			if err != nil {
				return w, r, err
			}
			akey := []byte("array_data")
			return writeRead(ops, p.Now,
				func(i int) error {
					return obj.Update(p, []engine.WriteExt{{Dkey: engine.ChunkDkey(int64(i)), Akey: akey, Data: buf}})
				},
				func(i int) error {
					rd := []engine.ReadExt{{Dkey: engine.ChunkDkey(int64(i)), Akey: akey, Length: int(xfer), Discard: true}}
					_, err := obj.Fetch(p, rd, 0)
					return err
				})
		}},
		{"dfs", "daos", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (w, r layerCost, err error) {
			fsys, err := dfs.Mount(p, ct)
			if err != nil {
				return w, r, err
			}
			f, err := fsys.Create(p, "/probe", opts)
			if err != nil {
				return w, r, err
			}
			return writeRead(ops, p.Now,
				func(i int) error { return f.WriteAt(p, off(i), buf) },
				func(i int) error { return f.ReadAtInto(p, off(i), xfer, nil) })
		}},
		{"dfuse", "dfs", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (w, r layerCost, err error) {
			fd, err := openFuse(p, tb, ct, "/probe")
			if err != nil {
				return w, r, err
			}
			return writeRead(ops, p.Now,
				func(i int) error { _, err := fd.Pwrite(p, off(i), buf); return err },
				func(i int) error { return fd.PreadInto(p, off(i), xfer, nil) })
		}},
		{"mpiio", "dfuse", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (w, r layerCost, err error) {
			return mpiioProbe(p, tb, ct, 1, ops, xfer, buf)
		}},
		{"mpiio_coll", "mpiio", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (w, r layerCost, err error) {
			return mpiioProbe(p, tb, ct, 2, ops, xfer, buf)
		}},
		{"hdf5", "dfuse", func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (w, r layerCost, err error) {
			fd, err := openFuse(p, tb, ct, "/probe.h5")
			if err != nil {
				return w, r, err
			}
			hf, err := hdf5.Create(p, hdf5.NewPosixVFD(fd), hdf5.DefaultCosts())
			if err != nil {
				return w, r, err
			}
			ds, err := hf.CreateDataset(p, "probe", int64(ops)*xfer, 0)
			if err != nil {
				return w, r, err
			}
			return writeRead(ops, p.Now,
				func(i int) error { return ds.Write(p, off(i), buf) },
				func(i int) error { return ds.ReadInto(p, off(i), xfer, nil) })
		}},
	}
	for _, pr := range probes {
		lp := layerProbe{name: pr.name, below: pr.below}
		err := onTestbed(func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) error {
			var err error
			lp.write, lp.read, err = pr.run(p, tb, ct)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", pr.name, err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// mpiioProbe drives MPI-I/O over the DFuse mount from ranks ranks on one
// client node: independent calls for one rank, collective calls for more,
// with the ranks' transfers interleaved. Rank 0 times each phase from
// barrier to barrier, which covers every rank's operations.
func mpiioProbe(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container, ranks, ops int, xfer int64, buf []byte) (w, r layerCost, err error) {
	m, err := mount(p, tb, ct)
	if err != nil {
		return w, r, err
	}
	nodes := make([]*fabric.Node, ranks)
	for i := range nodes {
		nodes[i] = tb.ClientNode(0)
	}
	n := float64(ops * ranks)
	errs := make([]error, ranks)
	mpi.NewWorld(tb.Sim, tb.Fabric, nodes).Parallel(p, func(cp *sim.Proc, rk *mpi.Rank) {
		f, err := mpiio.OpenPOSIX(cp, rk, m, "/probe", true, dfs.CreateOpts{Class: placement.S2}, mpiio.DefaultHints(ranks))
		if err != nil {
			errs[rk.ID()] = err
			return
		}
		at := func(i int) int64 { return int64(i*ranks+rk.ID()) * xfer }
		phase := func(op func(i int) error) (layerCost, error) {
			rk.Barrier(cp)
			var m *meter
			v0 := cp.Now()
			if rk.ID() == 0 {
				m = newMeter()
			}
			for i := 0; i < ops; i++ {
				if err := op(i); err != nil {
					return layerCost{}, err
				}
			}
			rk.Barrier(cp)
			if rk.ID() != 0 {
				return layerCost{}, nil
			}
			c := m.lap()
			return layerCost{us(c.host) / n, float64(c.alloc) / 1024 / n, us(cp.Now()-v0) / n, float64(c.allocs) / n}, nil
		}
		lw, err := phase(func(i int) error {
			if ranks == 1 {
				return f.WriteAt(cp, at(i), buf)
			}
			return f.WriteAtAll(cp, at(i), buf)
		})
		if err != nil {
			errs[rk.ID()] = err
			return
		}
		lr, err := phase(func(i int) error {
			if ranks == 1 {
				return f.ReadAtInto(cp, at(i), xfer, nil)
			}
			return f.ReadAtAllInto(cp, at(i), xfer, nil)
		})
		if err != nil {
			errs[rk.ID()] = err
			return
		}
		if rk.ID() == 0 {
			w, r = lw, lr
		}
	})
	return w, r, errors.Join(errs...)
}

// onTestbed runs body on a fresh default testbed with a pool and an S2
// container, then shuts the testbed down so its data is reclaimed.
func onTestbed(body func(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) error) error {
	tb := cluster.New(cluster.NEXTGenIO())
	defer tb.Shutdown()
	var err error
	tb.Run(func(p *sim.Proc) {
		pool, e := tb.NewClient(tb.ClientNode(0), 1).CreatePool(p, "probe-pool")
		if e != nil {
			err = e
			return
		}
		if _, e := pool.CreateContainer(p, "probe", daos.ContProps{Class: placement.S2}); e != nil {
			err = e
			return
		}
		ct, e := pool.OpenContainer(p, "probe")
		if e != nil {
			err = e
			return
		}
		err = body(p, tb, ct)
	})
	runtime.GC()
	return err
}

// mount puts a DFS namespace on ct and a dfuse daemon on client node 0.
func mount(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container) (*dfuse.Mount, error) {
	fsys, err := dfs.Mount(p, ct)
	if err != nil {
		return nil, err
	}
	return dfuse.NewMount(tb.Sim, tb.ClientNode(0), fsys, dfuse.DefaultCosts()), nil
}

// openFuse creates path on a fresh dfuse mount of ct.
func openFuse(p *sim.Proc, tb *cluster.Testbed, ct *daos.Container, path string) (*dfuse.File, error) {
	m, err := mount(p, tb, ct)
	if err != nil {
		return nil, err
	}
	return m.Open(p, path, dfuse.O_CREATE|dfuse.O_RDWR, dfs.CreateOpts{Class: placement.S2})
}

// serviceProbe is the per-call cost of the service's own layers, from
// micro-probes over one batch's jobs and reference points.
type serviceProbe struct {
	keyUS, memGetUS, memPutUS, diskLoadUS, diskStoreUS float64
	appendUS, openMS                                   float64
	encodeUS, decodeUS                                 float64
}

// probeService measures core.PointJob.Key, the cache's memory tier, a
// traced disk tier passed through cache.Options.Tiers, the job store's
// append (with its fsync) and recovery, and NDJSON framing of StreamPoints.
func probeService(cfgs []core.Config, ref []*core.Study) (serviceProbe, error) {
	var sp serviceProbe
	if len(ref) != len(cfgs) {
		return sp, errors.New("service probe: the reference studies are missing")
	}
	_, jobs := core.Decompose(cfgs)
	pts := make([]core.Point, len(jobs))
	for i, j := range jobs {
		pts[i] = ref[j.Study].Series[j.Series].Points[j.Index]
	}
	// Repeat in-memory probes until each has made at least this many calls.
	const minCalls = 4000
	rounds := (minCalls + len(jobs) - 1) / len(jobs)
	calls := float64(rounds * len(jobs))

	keys := make([]cache.Key, len(jobs))
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, j := range jobs {
			keys[i] = j.Key()
		}
	}
	sp.keyUS = us(time.Since(t0)) / calls

	mem, err := cache.New(cache.Options{})
	if err != nil {
		return sp, err
	}
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i, k := range keys {
			mem.Put(k, pts[i].CacheEntry())
		}
	}
	sp.memPutUS = us(time.Since(t0)) / calls
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			if _, ok := mem.Get(k); !ok {
				return sp, errors.New("cache probe: memory tier lost an entry")
			}
		}
	}
	sp.memGetUS = us(time.Since(t0)) / calls

	// Disk tier: store every entry through one cache, load it back through
	// a second cache over the same directory, whose memory tier is empty.
	dir, err := os.MkdirTemp("", "perfbench-probe-")
	if err != nil {
		return sp, err
	}
	defer os.RemoveAll(dir)
	rec := newRecorder()
	disk, err := cache.NewDiskTier(dir + "/cache")
	if err != nil {
		return sp, err
	}
	for pass := 0; pass < 2; pass++ {
		c, err := cache.New(cache.Options{Tiers: []cache.Tier{&timedTier{Tier: disk, rec: rec}}})
		if err != nil {
			return sp, err
		}
		for i, k := range keys {
			if pass == 0 {
				c.Put(k, pts[i].CacheEntry())
			} else if _, ok := c.Get(k); !ok {
				return sp, errors.New("cache probe: disk tier lost an entry")
			}
		}
	}
	sp.diskStoreUS = 1000 * rec.durations("cache.disk.store").mean()
	sp.diskLoadUS = 1000 * rec.durations("cache.disk.load").mean()

	// Job store: append every point of the batch, then recover the journal.
	st, err := jobstore.Open(dir + "/store")
	if err != nil {
		return sp, err
	}
	if err := st.AppendBatch("probe", cfgs); err != nil {
		st.Close()
		return sp, err
	}
	t0 = time.Now()
	for i, pt := range pts {
		if err := st.AppendPoint("probe", jobstore.PointRecord{Pos: i, Point: pt}); err != nil {
			st.Close()
			return sp, err
		}
	}
	sp.appendUS = us(time.Since(t0)) / float64(len(pts))
	if err := st.Close(); err != nil {
		return sp, err
	}
	t0 = time.Now()
	st, err = jobstore.Open(dir + "/store")
	if err != nil {
		return sp, err
	}
	sp.openMS = ms(time.Since(t0))
	rb := st.Recovered()
	if err := st.Close(); err != nil {
		return sp, err
	}
	if len(rb) != 1 || len(rb[0].Points) != len(pts) {
		return sp, fmt.Errorf("job store probe: recovered %d batches, want 1 with %d points", len(rb), len(pts))
	}

	// NDJSON framing of the stream's point lines.
	lines := make([]studysvc.StreamPoint, len(jobs))
	for i, j := range jobs {
		pt := pts[i]
		lines[i] = studysvc.StreamPoint{
			Study: j.Study, Series: j.Series, Index: j.Index, Seq: i + 1,
			Nodes: pt.Nodes, Ranks: pt.Ranks, WriteGiBs: pt.WriteGiBs, ReadGiBs: pt.ReadGiBs,
			ElapsedNS: int64(pt.Elapsed),
		}
	}
	var wire bytes.Buffer
	enc := json.NewEncoder(&wire)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		wire.Reset()
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return sp, err
			}
		}
	}
	sp.encodeUS = us(time.Since(t0)) / calls
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		dec := json.NewDecoder(bytes.NewReader(wire.Bytes()))
		for range lines {
			var l studysvc.StreamPoint
			if err := dec.Decode(&l); err != nil {
				return sp, err
			}
		}
	}
	sp.decodeUS = us(time.Since(t0)) / calls
	return sp, nil
}
