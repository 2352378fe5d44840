package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one batch share Batch;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Batch  int64  `json:"batch"`
	Name   string `json:"name"`
	Point  string `json:"point,omitempty"` // study/series/index of a point span
	Start  int64  `json:"start_ns"`        // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Recording is switched
// per batch: untraced batches of a traced run record nothing, so the two
// kinds can be compared for tracing overhead. The load generator is a
// closed loop with one client, so one batch is in flight at a time: its
// root span's ID is process-wide, and it is both the batch id and the
// parent of every span the batch causes.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	root  atomic.Int64
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active reports whether spans are being recorded; a nil recorder never is.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// add records a span caused by the current batch.
func (r *recorder) add(name, point string, start, end time.Time) {
	root := r.root.Load()
	r.put(span{
		ID: r.next.Add(1), Parent: root, Batch: root, Name: name, Point: point,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// begin starts a traced batch and returns its root span's ID.
func (r *recorder) begin() int64 {
	id := r.next.Add(1)
	r.root.Store(id)
	r.on.Store(true)
	return id
}

// end stops recording and records the batch's root span.
func (r *recorder) end(id int64, start, end time.Time) {
	r.on.Store(false)
	r.put(span{ID: id, Batch: id, Name: "client.batch", Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// put records s.
func (r *recorder) put(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// named returns the recorded spans with the given name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// byID indexes every recorded span.
func (r *recorder) byID() map[int64]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[int64]span, len(r.spans))
	for _, s := range r.spans {
		m[s.ID] = s
	}
	return m
}

// durations returns the durations of the named spans in milliseconds.
func (r *recorder) durations(name string) sample {
	var out sample
	for _, s := range r.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func pointName(study, series, index int) string {
	return fmt.Sprintf("%d/%d/%d", study, series, index)
}
