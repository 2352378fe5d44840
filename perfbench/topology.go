package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/jobstore"
	"daosim/internal/studysvc"
)

// daosd is one in-process study server on a loopback listener with an
// ephemeral port, served the way cmd/daosd serves it.
type daosd struct {
	srv    *studysvc.Server
	hs     *http.Server
	store  *jobstore.Store
	addr   string
	served chan struct{}
}

// startDaosd opens storeDir as the job store when it is non-empty and
// starts serving cfg.
func startDaosd(cfg studysvc.Config, storeDir string) (*daosd, error) {
	d := &daosd{served: make(chan struct{})}
	if storeDir != "" {
		st, err := jobstore.Open(storeDir)
		if err != nil {
			return nil, err
		}
		d.store = st
		cfg.Store = st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.store != nil {
			d.store.Close()
		}
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.srv = studysvc.New(cfg)
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once close begins
	}()
	return d, nil
}

// close drains the server like daosd's SIGTERM path and waits for its
// goroutines.
func (d *daosd) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
	if d.store != nil {
		return d.store.Close()
	}
	return nil
}

// topology is one workload's set of servers plus the client driving the
// front one.
type topology struct {
	servers []*daosd // front (the one the client talks to) last
	client  *studysvc.Client
	dirs    []string
}

// front is the server the client submits to.
func (t *topology) front() *daosd { return t.servers[len(t.servers)-1] }

// tempDir makes a fresh directory under the process temp dir and registers
// it for removal when the topology closes.
func (t *topology) tempDir(pattern string) (string, error) {
	d, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", err
	}
	t.dirs = append(t.dirs, d)
	return d, nil
}

func (t *topology) add(cfg studysvc.Config, storeDir string) (*daosd, error) {
	d, err := startDaosd(cfg, storeDir)
	if err != nil {
		return nil, err
	}
	t.servers = append(t.servers, d)
	return d, nil
}

// connect builds the client for the front server and waits until it
// answers a health probe.
func (t *topology) connect(onPoint func(studysvc.StreamPoint)) error {
	t.client = studysvc.NewClient(t.front().addr)
	t.client.OnPoint = onPoint
	// A benchmark run must not hide transport failures behind retries.
	t.client.RetryAttempts = 1
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return t.client.Health(ctx)
}

// close stops the servers front first, then removes the run's directories.
func (t *topology) close() error {
	var errs []error
	if t.client != nil {
		t.client.HTTP.CloseIdleConnections()
	}
	for i := len(t.servers) - 1; i >= 0; i-- {
		errs = append(errs, t.servers[i].close())
	}
	for _, d := range t.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}

// newWorker returns the NewWorker hook for a server's slots: nil (the
// default LocalWorker) when untraced, a timing wrapper otherwise.
func newWorker(rec *recorder) func() studysvc.Worker {
	if rec == nil {
		return nil
	}
	return func() studysvc.Worker { return &timedWorker{w: &studysvc.LocalWorker{}, rec: rec} }
}

// timedWorker records a span around every RunPoint of the slot it wraps.
// The span's start against its batch's submit gives the queue wait; its end
// against the client's arrival of the point gives the delivery time.
type timedWorker struct {
	w   *studysvc.LocalWorker
	rec *recorder
}

func (t *timedWorker) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	if !t.rec.active() {
		return t.w.RunPoint(ctx, j)
	}
	start := time.Now()
	pt, err := t.w.RunPoint(ctx, j)
	t.rec.add("studysvc.worker.run", pointName(j.Study, j.Series, j.Index), start, time.Now())
	return pt, err
}

// Close releases the wrapped slot's kernel arena.
func (t *timedWorker) Close() error { return t.w.Close() }

var _ io.Closer = (*timedWorker)(nil)

// timedTier records a span around every Load and Store of a cache tier. It
// keeps the wrapped tier's Name, so the cache still counts it as "disk".
type timedTier struct {
	cache.Tier
	rec *recorder
}

func (t *timedTier) Load(k cache.Key) (cache.Entry, cache.LoadResult) {
	start := time.Now()
	e, res := t.Tier.Load(k)
	t.rec.add("cache.disk.load", "", start, time.Now())
	return e, res
}

func (t *timedTier) Store(k cache.Key, e cache.Entry) error {
	start := time.Now()
	err := t.Tier.Store(k, e)
	t.rec.add("cache.disk.store", "", start, time.Now())
	return err
}

// paperTopology is paper-cold's server: one daosd with paperSlots local
// slots, a memory cache over a disk tier, and a job store, all in fresh
// directories.
func paperTopology(rec *recorder, onPoint func(studysvc.StreamPoint)) (*topology, error) {
	t := &topology{}
	cacheDir, err := t.tempDir("perfbench-cache-")
	if err != nil {
		return t, err
	}
	storeDir, err := t.tempDir("perfbench-store-")
	if err != nil {
		return t, err
	}
	c, err := cache.New(cache.Options{Dir: cacheDir})
	if err != nil {
		return t, err
	}
	if _, err := t.add(studysvc.Config{Workers: paperSlots, NewWorker: newWorker(rec), Cache: c}, storeDir); err != nil {
		return t, err
	}
	return t, t.connect(onPoint)
}

// warmTopology is service-warm's server: a storeless daosd with two local
// slots over an already filled memory cache.
func warmTopology(c *cache.Cache, rec *recorder, onPoint func(studysvc.StreamPoint)) (*topology, error) {
	t := &topology{}
	if _, err := t.add(studysvc.Config{Workers: 2, NewWorker: newWorker(rec), Cache: c}, ""); err != nil {
		return t, err
	}
	return t, t.connect(onPoint)
}

// fleetTopology is fleet-small-cold's servers: fleetSlots storeless,
// cacheless worker daosds with one slot each, behind a coordinator with no local
// slots, a memory cache and a job store.
func fleetTopology(rec *recorder, onPoint func(studysvc.StreamPoint)) (*topology, error) {
	t := &topology{}
	var remotes []string
	for i := 0; i < fleetSlots; i++ {
		w, err := t.add(studysvc.Config{Workers: 1, NewWorker: newWorker(rec)}, "")
		if err != nil {
			return t, err
		}
		remotes = append(remotes, w.addr)
	}
	storeDir, err := t.tempDir("perfbench-store-")
	if err != nil {
		return t, err
	}
	c, err := cache.New(cache.Options{})
	if err != nil {
		return t, err
	}
	if _, err := t.add(studysvc.Config{Remotes: remotes, Cache: c}, storeDir); err != nil {
		return t, err
	}
	if err := t.connect(onPoint); err != nil {
		return t, fmt.Errorf("fleet coordinator: %w", err)
	}
	return t, nil
}
