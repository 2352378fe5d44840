package gobcodec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// rec exercises the shapes the simulator encodes: scalars at their
// extremes, strings, slices, maps and pointers to structs.
type rec struct {
	Name  string
	N     uint64
	I     int64
	Tags  []int
	Attrs map[string]string
	Kids  map[string]*kid
	Ptr   *kid
}

type kid struct {
	Label string
	Raw   []byte
}

// fresh returns what a new gob.Encoder writes for v.
func fresh(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshDecode decodes data with a new gob.Decoder.
func freshDecode(data []byte) (rec, error) {
	var v rec
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}

// randRec draws a value whose maps hold at most one key, so gob's random
// map order cannot make two encodings differ.
func randRec(rng *rand.Rand) rec {
	v := rec{Name: fmt.Sprintf("n%d", rng.Intn(100)), N: rng.Uint64(), I: rng.Int63() - rng.Int63()}
	switch rng.Intn(4) {
	case 0:
		v = rec{} // all zero
	case 1:
		v.N, v.I = math.MaxUint64, math.MinInt64
	}
	if rng.Intn(2) == 0 {
		v.Tags = []int{rng.Int(), 0, -1}
	}
	if rng.Intn(2) == 0 {
		v.Attrs = map[string]string{"k": fmt.Sprint(rng.Intn(10))}
	}
	if rng.Intn(2) == 0 {
		v.Kids = map[string]*kid{"c": {Label: "x", Raw: []byte{0, 0xff}}}
	}
	if rng.Intn(2) == 0 {
		v.Ptr = &kid{Label: "p"}
	}
	return v
}

func TestEncodeMatchesFreshEncoder(t *testing.T) {
	var c Codec[rec]
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := randRec(rng)
		got, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(t, v); !bytes.Equal(got, want) {
			t.Fatalf("value %d (%+v):\ncodec %x\nfresh %x", i, v, got, want)
		}
		back, err := c.Decode(got)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := freshDecode(got); !reflect.DeepEqual(back, want) {
			t.Fatalf("value %d decoded to %+v, fresh decoder gives %+v", i, back, want)
		}
	}
}

func TestEncodeMultiKeyMaps(t *testing.T) {
	// With several map keys gob's order is random: lengths match and the
	// value round-trips.
	var c Codec[rec]
	v := rec{Attrs: map[string]string{"a": "1", "b": "2", "c": "3"}, Kids: map[string]*kid{"x": {Label: "x"}, "y": {Raw: []byte{1}}}}
	got, err := c.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(t, v); len(got) != len(want) {
		t.Fatalf("codec wrote %d bytes, fresh encoder %d", len(got), len(want))
	}
	back, err := c.Decode(got)
	if err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("round trip = %+v, %v", back, err)
	}
}

func TestEncodeDoesNotAlias(t *testing.T) {
	var c Codec[rec]
	a, _ := c.Encode(rec{Name: "a"})
	keep := bytes.Clone(a)
	if _, err := c.Encode(rec{Name: "bbbbbbbb"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, keep) {
		t.Fatal("a later Encode overwrote an earlier result")
	}
}

func TestDecodeRejects(t *testing.T) {
	var c Codec[rec]
	valid, err := c.Encode(rec{Name: "ok", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	other := fresh(t, kid{Label: "other type"})
	cases := map[string]struct {
		in   []byte
		want error
	}{
		"empty":             {nil, ErrPrefix},
		"not gob":           {[]byte("not gob"), ErrPrefix},
		"other type":        {other, ErrPrefix},
		"prefix only":       {c.prefix, ErrMessage},
		"truncated":         {valid[:len(valid)-1], ErrMessage},
		"trailing byte":     {append(bytes.Clone(valid), 0), ErrMessage},
		"type after prefix": {append(bytes.Clone(c.prefix), other...), ErrMessage},
	}
	for name, tc := range cases {
		if _, err := c.Decode(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	// One value message whose body is garbage reaches the decoder, fails
	// there, and re-primes it.
	bad := append(bytes.Clone(c.prefix), 3, 0xfe, 0xff, 0xff)
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("garbage body decoded")
	}
	if v, err := c.Decode(valid); err != nil || v.Name != "ok" || v.N != 7 {
		t.Fatalf("decode after a rejected input = %+v, %v", v, err)
	}
}

func TestConcurrentEncodeDecode(t *testing.T) {
	var c Codec[rec]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				v := randRec(rng)
				b, err := c.Encode(v)
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					// A rejected decode re-primes under the others' feet.
					if _, err := c.Decode(append(bytes.Clone(c.prefix), 2, 0xfe, 0xff)); err == nil {
						t.Error("garbage body decoded")
						return
					}
				}
				back, err := c.Decode(b)
				if err != nil {
					t.Error(err)
					return
				}
				if want, _ := freshDecode(b); !reflect.DeepEqual(back, want) {
					t.Errorf("goroutine %d value %d: %+v, want %+v", g, i, back, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func FuzzCodecDecode(f *testing.F) {
	var c Codec[rec]
	sample := rec{Name: "s", N: math.MaxUint64, Tags: []int{1}, Attrs: map[string]string{"k": "v"}, Kids: map[string]*kid{"c": {Raw: []byte{9}}}, Ptr: &kid{}}
	valid, err := c.Encode(sample)
	if err != nil {
		f.Fatal(err)
	}
	want, err := freshDecode(valid)
	if err != nil {
		f.Fatal(err)
	}
	zero, _ := c.Encode(rec{})
	f.Add(valid)
	f.Add(zero)
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))
	f.Add(bytes.Clone(c.prefix))
	f.Add([]byte("not gob"))
	f.Add(append(bytes.Clone(c.prefix), fresh(f, kid{Label: "x"})...))
	f.Add(append(bytes.Clone(c.prefix), 3, 0xfe, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := c.Decode(data)
		if err == nil {
			ref, ferr := freshDecode(data)
			if ferr != nil {
				t.Fatalf("codec accepted %x, a fresh decoder rejects it: %v", data, ferr)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("codec decoded %x to %+v, a fresh decoder to %+v", data, got, ref)
			}
		}
		// Whatever came before, the next valid input decodes.
		if v, err := c.Decode(valid); err != nil || !reflect.DeepEqual(v, want) {
			t.Fatalf("valid decode after %x = %+v, %v", data, v, err)
		}
	})
}
