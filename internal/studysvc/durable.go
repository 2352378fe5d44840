package studysvc

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"daosim/internal/core"
	"daosim/internal/jobstore"
)

// This file is the batch half of the scheduler: every submission is a
// batchState, and one delivery path and one serve path carry all three
// entry points (POST /v1/studies with and without a job store, POST
// /v1/points, and GET /v1/studies/{batch}?from=seq).
//
// A batch's lifecycle: a handler opens the batch and starts an enqueue
// goroutine that schedules its jobs; whoever produces a point (a pool
// member, a cache hit, a coalesced replay) delivers it straight into the
// batch, which assigns its delivery sequence number and appends it to the
// replay log; any number of stream attachments serve the log from an
// offset and then follow live deliveries until the trailer.
//
// Two attributes separate the kinds of batch. A storeless batch (no id)
// runs under its request's context, ended by a client disconnect, and
// keeps no journal. A journaled batch (Config.Store set, id echoed in the
// Header) runs under the server's lifetime context — the client may come
// and go — and appends every delivered point to the job store before the
// point becomes visible. When its trailer has been written to some
// client, a journaled batch retires: a done record hits the journal and
// the state is dropped. A journaled batch interrupted by a crash is
// rebuilt from the journal on startup — completed points pre-populate the
// replay log, the rest re-enqueue.

// batchState is one submission resident in memory.
type batchState struct {
	// id names a journaled batch; a storeless batch has none, which is
	// also how its Header tells the client it cannot be resumed.
	id      string
	ctx     context.Context // the batch's lifetime; nothing is delivered once it ends
	jobs    []core.PointJob
	studies int
	start   time.Time
	retried atomic.Int64

	mu sync.Mutex
	// log is the replay log: log[i].Seq == i+1. Allocated at the batch's
	// full size and only ever appended to, so an attachment may read the
	// entries below a length it saw under mu without holding it.
	log []StreamPoint
	// done marks job positions already delivered (or recovered), so no
	// position is ever logged twice.
	done []bool
	// sum is the trailer ledger, counted as points are logged; sum.Done
	// is set once every job has been delivered.
	sum Trailer
	// wakes are the attachments' wakeup channels (buffered 1), signaled
	// on every delivery.
	wakes   []chan struct{}
	retired bool
}

// newBatch builds an empty batch of jobs; a zero-point batch is complete
// from the start.
func (s *Server) newBatch(ctx context.Context, id string, jobs []core.PointJob, studies int) *batchState {
	b := &batchState{
		id:      id,
		ctx:     ctx,
		jobs:    jobs,
		studies: studies,
		start:   time.Now(),
		log:     make([]StreamPoint, 0, len(jobs)),
		done:    make([]bool, len(jobs)),
	}
	b.sum.CacheEnabled = s.cache != nil
	b.sealLocked()
	return b
}

// journaled reports whether b keeps a journal: exactly the batches with
// an id.
func (b *batchState) journaled() bool { return b.id != "" }

// isDone reports whether job position i has been delivered.
func (b *batchState) isDone(i int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done[i]
}

// recordLocked appends sp to the replay log as the next seq, counts it in
// the ledger, and wakes every attachment. It is the one place a delivered
// point is recorded, for live deliveries and journal replay alike.
func (b *batchState) recordLocked(sp StreamPoint) {
	sp.Seq = len(b.log) + 1
	b.log = append(b.log, sp)
	if sp.CacheHit {
		b.sum.CacheHits++
	} else {
		b.sum.CacheMisses++
	}
	if sp.Coalesced {
		b.sum.Coalesced++
	}
	if sp.Err != "" {
		b.sum.Errors++
	}
	b.sealLocked()
	for _, ch := range b.wakes {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// sealLocked completes the trailer once every job has been delivered.
func (b *batchState) sealLocked() {
	if len(b.log) < len(b.jobs) {
		return
	}
	b.sum.Done = true
	b.sum.Points = len(b.jobs)
	b.sum.Retries = int(b.retried.Load())
	b.sum.ElapsedNS = int64(time.Since(b.start))
}

// deliver is the one way a point reaches a batch. It drops the point when
// the batch's context has ended — the batch has stopped, and whatever
// its submission's end produced is not a result — and when the position
// was already delivered. A journaled batch appends the point to the job
// store under the batch lock, before the point becomes visible: journal
// order is seq order, and a point a client saw is a point a restarted
// server still has.
func (s *Server) deliver(t task, sp StreamPoint) {
	b := t.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ctx.Err() != nil || b.done[t.pos] {
		return
	}
	b.done[t.pos] = true
	if b.journaled() {
		if err := s.store.AppendPoint(b.id, jobstore.PointRecord{
			Pos:       t.pos,
			Point:     sp.toPoint(),
			CacheHit:  sp.CacheHit,
			Coalesced: sp.Coalesced,
		}); err != nil {
			s.journalErrs.Add(1)
		}
	}
	b.recordLocked(sp)
}

// serveBatch streams b's replay log from offset `from` (a seq: the
// client has everything up to and including it) and follows live
// deliveries through the trailer. It is the one writer of stream lines.
// Any number of attachments can serve one batch concurrently; whichever
// writes a journaled batch's trailer first retires the batch.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, b *batchState, from int) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := enc.Encode(Header{Batch: b.id, Points: len(b.jobs), Studies: b.studies}); err != nil {
		return
	}
	flush()

	wake := make(chan struct{}, 1)
	b.mu.Lock()
	b.wakes = append(b.wakes, wake)
	b.mu.Unlock()
	defer b.detach(wake)
	for next := max(from, 0); ; {
		b.mu.Lock()
		log, sum := b.log, b.sum
		b.mu.Unlock()
		if next < len(log) {
			for ; next < len(log); next++ {
				if err := enc.Encode(&log[next]); err != nil {
					return // client gone; the batch keeps running until its context ends
				}
			}
			flush()
		}
		if sum.Done {
			if err := enc.Encode(&sum); err != nil {
				return
			}
			flush()
			if b.journaled() {
				s.retireBatch(b)
			}
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-b.ctx.Done():
			return
		}
	}
}

// detach unregisters an attachment's wakeup channel.
func (b *batchState) detach(wake chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, ch := range b.wakes {
		if ch == wake {
			b.wakes[i] = b.wakes[len(b.wakes)-1]
			b.wakes = b.wakes[:len(b.wakes)-1]
			return
		}
	}
}

// DurabilityStats is the /v1/statsz durability block of a daosd running
// with a job store.
type DurabilityStats struct {
	// JournaledBatches counts submissions journaled since this process
	// started.
	JournaledBatches int64 `json:"journaled_batches"`
	// LiveBatches is the number of batches currently resident (accepted
	// or recovered, trailer not yet delivered).
	LiveBatches int `json:"live_batches"`
	// RecoveredBatches, ReplayedPoints, and ReenqueuedPoints describe
	// the last startup recovery: how many unfinished batches the journal
	// held, how many of their points were served from the store, and how
	// many had to be re-enqueued for execution.
	RecoveredBatches int `json:"recovered_batches"`
	ReplayedPoints   int `json:"replayed_points"`
	ReenqueuedPoints int `json:"reenqueued_points"`
	// ResumedStreams counts GET resume attachments served.
	ResumedStreams int64 `json:"resumed_streams"`
	// JournalErrors counts appends the store refused (disk trouble);
	// affected points lose durability, not correctness.
	JournalErrors int64 `json:"journal_errors,omitempty"`
}

// newBatchID generates a server-side batch id when the client did not
// pick one.
func newBatchID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("batch-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// openBatch returns the live journaled batch id, creating (and
// journaling, and scheduling) it on first sight. The second return is
// false when the id was already live — a re-POST that should re-attach,
// not re-schedule.
func (s *Server) openBatch(id string, cfgs []core.Config) (*batchState, bool) {
	s.batchMu.Lock()
	if b, ok := s.batches[id]; ok {
		s.batchMu.Unlock()
		return b, false
	}
	_, jobs := core.Decompose(cfgs)
	b := s.newBatch(s.ctx, id, jobs, len(cfgs))
	s.batches[id] = b
	s.batchMu.Unlock()

	if err := s.store.AppendBatch(id, cfgs); err != nil {
		// The batch still runs; it just will not survive a crash.
		s.journalErrs.Add(1)
	}
	s.journaled.Add(1)
	go s.enqueue(b)
	return b, true
}

// lookupBatch returns the live batchState for id, if any.
func (s *Server) lookupBatch(id string) *batchState {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	return s.batches[id]
}

// retireBatch drops a fully-delivered batch: the journal gets its done
// record and the state leaves the live table. Idempotent across
// concurrent attachments.
func (s *Server) retireBatch(b *batchState) {
	b.mu.Lock()
	already := b.retired
	b.retired = true
	b.mu.Unlock()
	if already {
		return
	}
	if err := s.store.BatchDone(b.id); err != nil {
		s.journalErrs.Add(1)
	}
	s.batchMu.Lock()
	delete(s.batches, b.id)
	s.batchMu.Unlock()
}

// recoverBatches rebuilds the store's unfinished batches at startup:
// completed points pre-populate each replay log (re-sequenced in their
// journal order, which was their delivery order), and only the points
// that never finished are re-enqueued. Runs before the server accepts
// connections, but the re-enqueued work executes on the normal pool
// machinery.
func (s *Server) recoverBatches() {
	for _, rb := range s.store.Recovered() {
		_, jobs := core.Decompose(rb.Configs)
		b := s.newBatch(s.ctx, rb.ID, jobs, len(rb.Configs))
		// b is not shared yet, so its log is built without the lock.
		for _, pr := range rb.Points {
			if pr.Pos < 0 || pr.Pos >= len(jobs) || b.done[pr.Pos] {
				continue
			}
			b.done[pr.Pos] = true
			sp := toWire(jobs[pr.Pos], pr.Point, pr.CacheHit)
			sp.Coalesced = pr.Coalesced
			b.recordLocked(sp)
		}
		s.batchMu.Lock()
		s.batches[rb.ID] = b
		s.batchMu.Unlock()
		s.recovery.RecoveredBatches++
		s.recovery.ReplayedPoints += len(b.log)
		s.recovery.ReenqueuedPoints += len(jobs) - len(b.log)
		go s.enqueue(b)
	}
}

// handleResume implements the GET resume leg: re-attach to a live batch
// from a seq offset.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.draining(w) {
		return
	}
	id := r.PathValue("batch")
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("studysvc: bad from offset %q", q), http.StatusBadRequest)
			return
		}
		from = n
	}
	b := s.lookupBatch(id)
	if b == nil {
		http.Error(w, fmt.Sprintf("studysvc: unknown batch %q", id), http.StatusNotFound)
		return
	}
	s.resumed.Add(1)
	s.serveBatch(w, r, b, from)
}

// durabilityStats snapshots the durability counters for /v1/statsz.
func (s *Server) durabilityStats() *DurabilityStats {
	if s.store == nil {
		return nil
	}
	s.batchMu.Lock()
	live := len(s.batches)
	s.batchMu.Unlock()
	d := s.recovery // static after New
	d.JournaledBatches = s.journaled.Load()
	d.LiveBatches = live
	d.ResumedStreams = s.resumed.Load()
	d.JournalErrors = s.journalErrs.Load()
	return &d
}
