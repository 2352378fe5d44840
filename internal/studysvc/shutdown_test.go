package studysvc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"daosim/internal/cache"
	"daosim/internal/core"
	"daosim/internal/ior"
)

// The shutdown tests pin what a journal may hold: measured results only.
// A point that exists because its submission was canceled or the server
// was stopping is not a result, and a restarted server must run its
// position again instead of replaying it.

// TestCloseOrKillMidBatchJournalsOnlyResults stops a -store-dir server
// (Close or kill, alternating) while a 48-point batch is in flight on
// eight ctx-honoring workers, reopens the store, and requires that no
// recovered point carries an error (the stub never fails a point, so any
// error is a fabricated one), that the restarted server counts every
// unjournaled position as re-enqueued, and that resuming the batch yields
// all 48 points error-free. Stopping mid-delivery is timing-dependent, so
// it runs as a trial loop.
func TestCloseOrKillMidBatchJournalsOnlyResults(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	cfg := smallConfig([]core.Variant{
		{Label: "daos S2", API: ior.APIDFS}, {Label: "daos SX", API: ior.APIDFS}, {Label: "hdf5", API: ior.APIHDF5},
	})
	cfg.Nodes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	cfgs := []core.Config{cfg}
	_, jobs := core.Decompose(cfgs)

	fabricated, interrupted := 0, 0
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		store := openStore(t, dir)
		srv := New(Config{
			Workers:   8,
			NewWorker: func() Worker { return stubWorker{delay: 3 * time.Millisecond} },
			Store:     store,
		})
		ts := httptest.NewServer(srv)
		client := NewClient(ts.URL)
		client.RetryAttempts = 1
		submitted := make(chan struct{})
		go func() {
			defer close(submitted)
			client.Submit(context.Background(), cfgs) // severed by the stop below
		}()
		time.Sleep(15 * time.Millisecond)
		if trial%2 == 0 {
			srv.kill()
		}
		srv.Close()
		ts.Close()
		<-submitted
		store.Close()

		reopened := openStore(t, dir)
		rec := reopened.Recovered()
		if len(rec) == 0 {
			// The batch finished before the stop: nothing to check.
			reopened.Close()
			continue
		}
		interrupted++
		bad := false
		for _, pr := range rec[0].Points {
			if pr.Point.Err != "" {
				bad = true
				t.Logf("trial %d: journal holds position %d with error %q", trial, pr.Pos, pr.Point.Err)
			}
		}
		if bad {
			fabricated++
			reopened.Close()
			continue
		}

		srv2 := New(Config{Workers: 2, NewWorker: func() Worker { return stubWorker{} }, Store: reopened})
		ts2 := httptest.NewServer(srv2)
		rb, rp, re := srv2.Recovery()
		if rb != 1 || rp != len(rec[0].Points) || rp+re != len(jobs) {
			t.Errorf("trial %d: Recovery() = (%d,%d,%d), want (1,%d,%d)", trial, rb, rp, re, len(rec[0].Points), len(jobs)-len(rec[0].Points))
		}
		if err := resumeAll(ts2.URL, rec[0].ID, len(jobs)); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		ts2.Close()
		srv2.Close()
		reopened.Close()
	}
	if fabricated > 0 {
		t.Fatalf("%d/%d interrupted trials journaled a fabricated point", fabricated, interrupted)
	}
	if interrupted == 0 {
		t.Fatalf("no trial of %d stopped the batch mid-flight", trials)
	}
}

// resumeAll attaches to batch id from seq 0 and requires n error-free
// points and a trailer counting no errors.
func resumeAll(base, id string, n int) error {
	body, err := NewClient(base).get(context.Background(), fmt.Sprintf("%s/%s?from=0", PathSubmit, id))
	if err != nil {
		return err
	}
	defer body.Close()
	dec := json.NewDecoder(body)
	var h Header
	if err := dec.Decode(&h); err != nil {
		return err
	}
	tr, err := consumePoints(dec, n, func(sp StreamPoint) error {
		if sp.Err != "" {
			return fmt.Errorf("resumed point %d carries error %q", sp.Seq, sp.Err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if tr.Errors != 0 {
		return fmt.Errorf("resumed trailer counts %d errors", tr.Errors)
	}
	return nil
}

// handoffWorker holds the first execution of key lead until its
// submission is canceled, holds key hold until release closes, and runs
// everything else as the stub does.
type handoffWorker struct {
	lead, hold cache.Key
	release    chan struct{}

	mu   sync.Mutex
	runs map[cache.Key]int
}

func (w *handoffWorker) RunPoint(ctx context.Context, j core.PointJob) (core.Point, error) {
	k := j.Key()
	w.mu.Lock()
	w.runs[k]++
	n := w.runs[k]
	w.mu.Unlock()
	switch {
	case k == w.lead && n == 1:
		<-ctx.Done()
		return canceledPoint(j), nil
	case k == w.hold:
		select {
		case <-w.release:
		case <-ctx.Done():
			return canceledPoint(j), nil
		}
	}
	return stubWorker{}.RunPoint(ctx, j)
}

func (w *handoffWorker) count(k cache.Key) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runs[k]
}

// TestSingleFlightJournaledWaiterSurvivesEphemeralLeader: a journaled
// batch coalesces onto a point whose flight a storeless /v1/points
// submission leads, and that submission's client disconnects. The flight
// must pass to the journaled waiter, which runs the point for real, and
// the journal must hold that real point, never the leader's cancellation.
func TestSingleFlightJournaledWaiterSurvivesEphemeralLeader(t *testing.T) {
	memCache, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := openStore(t, dir)
	cfg := smallConfig([]core.Variant{{Label: "daos S2", API: ior.APIDFS}})
	cfg.Nodes = []int{2, 3}
	cfgs := []core.Config{cfg}
	_, jobs := core.Decompose(cfgs)
	shared, held := jobs[0], jobs[1]
	w := &handoffWorker{lead: shared.Key(), hold: held.Key(), release: make(chan struct{}), runs: make(map[cache.Key]int)}
	srv, ts := startServer(t, Config{
		Workers:   2,
		NewWorker: func() Worker { return w },
		Cache:     memCache,
		Store:     store,
	})

	leadCtx, cancelLead := context.WithCancel(context.Background())
	defer cancelLead()
	leadErr := make(chan error, 1)
	go func() {
		_, err := NewClient(ts.URL).SubmitJobs(leadCtx, []core.PointJob{shared})
		leadErr <- err
	}()
	waitFor(t, "storeless leader executing", func() bool { return w.count(shared.Key()) == 1 })

	client := NewClient(ts.URL)
	points := make(chan StreamPoint, len(jobs))
	client.OnPoint = func(sp StreamPoint) { points <- sp }
	type result struct {
		studies []*core.Study
		err     error
	}
	done := make(chan result, 1)
	go func() {
		studies, err := client.Submit(context.Background(), cfgs)
		done <- result{studies, err}
	}()
	waitFor(t, "journaled waiter parked and held job executing", func() bool {
		srv.flightMu.Lock()
		f := srv.flights[shared.Key()]
		parked := f != nil && len(f.waiters) == 1
		srv.flightMu.Unlock()
		return parked && w.count(held.Key()) == 1
	})

	cancelLead()
	if err := <-leadErr; err == nil {
		t.Fatal("canceled storeless submission returned no error")
	}
	var sp StreamPoint
	select {
	case sp = <-points:
	case <-time.After(10 * time.Second):
		t.Fatal("journaled batch never received the shared point")
	}
	if sp.Index != shared.Index || sp.Err != "" || sp.WriteGiBs != stubValue(shared) {
		t.Fatalf("journaled batch's shared point = %+v, want the real result %v", sp, stubValue(shared))
	}
	// The point was journaled before it was streamed. Closing the store
	// now makes it refuse the held point and the done record, so the
	// reopened journal still lists the batch for inspection.
	store.Close()
	close(w.release)
	res := <-done
	if res.err != nil {
		t.Fatalf("journaled Submit: %v", res.err)
	}
	verifyStubStudies(t, cfgs, res.studies)
	if n := w.count(shared.Key()); n != 2 {
		t.Fatalf("shared point ran %d times, want 2 (the canceled leader, then the promoted waiter)", n)
	}

	reopened := openStore(t, dir)
	defer reopened.Close()
	rec := reopened.Recovered()
	if len(rec) != 1 || len(rec[0].Points) != 1 {
		t.Fatalf("reopened journal = %+v, want one batch holding the shared point", rec)
	}
	pr := rec[0].Points[0]
	if pr.Pos != 0 || pr.Point.Err != "" || pr.Point.WriteGiBs != stubValue(shared) {
		t.Fatalf("journaled shared point = %+v, want the real result", pr)
	}
}
