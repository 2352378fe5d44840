package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		bound := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n % 64)
		p := NewRNG(seed).Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpPositive(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exp(2.0)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 1.9 || mean > 2.1 {
		t.Fatalf("Exp mean = %v, want ~2.0", mean)
	}
}

func TestRNGForkIndependent(t *testing.T) {
	r := NewRNG(11)
	f1 := r.Fork()
	v := r.Uint64()
	f2 := NewRNG(11)
	_ = f2.Fork()
	if v != f2.Uint64() {
		t.Fatal("Fork perturbed parent stream inconsistently")
	}
	if f1.Uint64() == r.Uint64() {
		t.Fatal("forked stream mirrors parent")
	}
}
