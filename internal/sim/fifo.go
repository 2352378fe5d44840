package sim

// fifo is a head-indexed FIFO queue backed by a single slice. Pop advances
// a head index instead of re-slicing (the append/[1:] pattern marches a
// slice through its backing array and makes append reallocate it every few
// operations). The backing array is reclaimed wholesale when the queue
// drains; when it fills while at least half of it is dead prefix, Push
// compacts the live region to the front instead of growing. Freed slots per
// compaction are at least half the capacity, so pushes stay amortized O(1),
// capacity stays within a small factor of the peak queue length, and a
// long-lived queue — even one that never fully drains, like a saturated
// resource's waiter line — settles into zero steady-state allocation.
type fifo[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (f *fifo[T]) Len() int { return len(f.buf) - f.head }

// Push appends v at the tail.
func (f *fifo[T]) Push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= cap(f.buf)/2 {
		var zero T
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = zero
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the head entry. The caller must have checked
// Len() > 0.
func (f *fifo[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}
