package vos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

var testOID = ObjectID{Hi: 0x1234, Lo: 0x5678}

func TestSingleValueRoundTrip(t *testing.T) {
	c := NewContainer("c0")
	created := c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 1, []byte("value1"))
	if !created {
		t.Fatal("first update did not report object creation")
	}
	if c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 2, []byte("value2")) {
		t.Fatal("second update reported object creation")
	}
	v, err := c.FetchSingle(testOID, []byte("dk"), []byte("ak"), EpochMax)
	if err != nil || string(v) != "value2" {
		t.Fatalf("fetch latest = %q, %v", v, err)
	}
	v, err = c.FetchSingle(testOID, []byte("dk"), []byte("ak"), 1)
	if err != nil || string(v) != "value1" {
		t.Fatalf("fetch@1 = %q, %v", v, err)
	}
}

func TestFetchMissing(t *testing.T) {
	c := NewContainer("c0")
	if _, err := c.FetchSingle(testOID, []byte("dk"), []byte("ak"), EpochMax); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 1, []byte("v"))
	if _, err := c.FetchSingle(testOID, []byte("other"), []byte("ak"), EpochMax); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing dkey err = %v", err)
	}
	if _, err := c.FetchSingle(testOID, []byte("dk"), []byte("other"), EpochMax); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing akey err = %v", err)
	}
}

func TestArrayRoundTrip(t *testing.T) {
	c := NewContainer("c0")
	data := bytes.Repeat([]byte("x"), 1024)
	c.UpdateArray(testOID, []byte("dk"), []byte("data"), 1, 0, len(data), data)
	c.UpdateArray(testOID, []byte("dk"), []byte("data"), 2, 1024, len(data), data)
	got, err := c.FetchArray(testOID, []byte("dk"), []byte("data"), EpochMax, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("x"), 1024)) {
		t.Fatal("array read mismatch across extent boundary")
	}
	if size := c.ArraySize(testOID, []byte("dk"), []byte("data"), EpochMax); size != 2048 {
		t.Fatalf("array size = %d, want 2048", size)
	}
	if size := c.ArraySize(testOID, []byte("dk"), []byte("data"), 1); size != 1024 {
		t.Fatalf("array size@1 = %d, want 1024", size)
	}
}

func TestMixedKindPanics(t *testing.T) {
	c := NewContainer("c0")
	c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 1, []byte("v"))
	defer func() {
		if recover() == nil {
			t.Error("array update on single akey did not panic")
		}
	}()
	c.UpdateArray(testOID, []byte("dk"), []byte("ak"), 2, 0, 1, []byte("x"))
}

func TestPunchObject(t *testing.T) {
	c := NewContainer("c0")
	c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 1, []byte("v"))
	if err := c.PunchObject(testOID, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchSingle(testOID, []byte("dk"), []byte("ak"), EpochMax); !errors.Is(err, ErrPunched) {
		t.Fatalf("post-punch fetch err = %v, want ErrPunched", err)
	}
	// Reads before the punch epoch still see the data (snapshot semantics).
	v, err := c.FetchSingle(testOID, []byte("dk"), []byte("ak"), 4)
	if err != nil || string(v) != "v" {
		t.Fatalf("pre-punch fetch = %q, %v", v, err)
	}
}

func TestPunchDkey(t *testing.T) {
	c := NewContainer("c0")
	c.UpdateSingle(testOID, []byte("d1"), []byte("ak"), 1, []byte("v1"))
	c.UpdateSingle(testOID, []byte("d2"), []byte("ak"), 1, []byte("v2"))
	if err := c.PunchDkey(testOID, []byte("d1"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchSingle(testOID, []byte("d1"), []byte("ak"), EpochMax); !errors.Is(err, ErrPunched) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.FetchSingle(testOID, []byte("d2"), []byte("ak"), EpochMax); err != nil {
		t.Fatalf("unrelated dkey punched: %v", err)
	}
	dkeys, err := c.ListDkeys(testOID, EpochMax)
	if err != nil || len(dkeys) != 1 || string(dkeys[0]) != "d2" {
		t.Fatalf("dkeys = %v, %v", dkeys, err)
	}
}

func TestListDkeysSorted(t *testing.T) {
	c := NewContainer("c0")
	for _, dk := range []string{"zeta", "alpha", "mid"} {
		c.UpdateSingle(testOID, []byte(dk), []byte("ak"), 1, []byte("v"))
	}
	dkeys, err := c.ListDkeys(testOID, EpochMax)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i, w := range want {
		if string(dkeys[i]) != w {
			t.Fatalf("dkeys = %v, want %v", dkeys, want)
		}
	}
}

func TestListAkeys(t *testing.T) {
	c := NewContainer("c0")
	c.UpdateSingle(testOID, []byte("dk"), []byte("b"), 1, []byte("v"))
	c.UpdateSingle(testOID, []byte("dk"), []byte("a"), 1, []byte("v"))
	aks, err := c.ListAkeys(testOID, []byte("dk"), EpochMax)
	if err != nil || len(aks) != 2 || string(aks[0]) != "a" {
		t.Fatalf("akeys = %v, %v", aks, err)
	}
}

func TestListObjects(t *testing.T) {
	c := NewContainer("c0")
	ids := []ObjectID{{Hi: 2, Lo: 1}, {Hi: 1, Lo: 9}, {Hi: 1, Lo: 2}}
	for _, id := range ids {
		c.UpdateSingle(id, []byte("dk"), []byte("ak"), 1, []byte("v"))
	}
	got := c.ListObjects()
	if len(got) != 3 {
		t.Fatalf("objects = %v", got)
	}
	// Sorted by (Hi, Lo).
	if got[0] != (ObjectID{Hi: 1, Lo: 2}) || got[2] != (ObjectID{Hi: 2, Lo: 1}) {
		t.Fatalf("objects not sorted: %v", got)
	}
	if c.NumObjects() != 3 {
		t.Fatalf("NumObjects = %d", c.NumObjects())
	}
}

func TestContainerAggregate(t *testing.T) {
	c := NewContainer("c0")
	for e := Epoch(1); e <= 4; e++ {
		c.UpdateArray(testOID, []byte("dk"), []byte("data"), e, 0, 100, bytes.Repeat([]byte{byte(e)}, 100))
	}
	used := c.UsedBytes
	if used != 400 {
		t.Fatalf("used = %d", used)
	}
	reclaimed := c.Aggregate(EpochMax)
	if reclaimed != 300 {
		t.Fatalf("reclaimed = %d, want 300", reclaimed)
	}
	if c.UsedBytes != 100 {
		t.Fatalf("used after aggregate = %d, want 100", c.UsedBytes)
	}
	got, err := c.FetchArray(testOID, []byte("dk"), []byte("data"), EpochMax, 0, 100)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{4}, 100)) {
		t.Fatalf("post-aggregate read wrong: %v %v", got[:4], err)
	}
}

func TestMaxEpochTracking(t *testing.T) {
	c := NewContainer("c0")
	c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 7, []byte("v"))
	c.UpdateArray(testOID, []byte("dk"), []byte("arr"), 9, 0, 1, []byte("x"))
	if c.MaxEpoch() != 9 {
		t.Fatalf("MaxEpoch = %d, want 9", c.MaxEpoch())
	}
}

func TestManyObjectsManyDkeys(t *testing.T) {
	// Stress the tree composition: 50 objects x 20 dkeys x 2 akeys.
	c := NewContainer("c0")
	for o := 0; o < 50; o++ {
		oid := ObjectID{Hi: uint64(o), Lo: uint64(o * 31)}
		for d := 0; d < 20; d++ {
			dk := []byte(fmt.Sprintf("dkey.%04d", d))
			c.UpdateSingle(oid, dk, []byte("meta"), 1, []byte{byte(o), byte(d)})
			c.UpdateArray(oid, dk, []byte("data"), 1, int64(d)*10, 10, bytes.Repeat([]byte{byte(o)}, 10))
		}
	}
	for o := 0; o < 50; o++ {
		oid := ObjectID{Hi: uint64(o), Lo: uint64(o * 31)}
		for d := 0; d < 20; d++ {
			dk := []byte(fmt.Sprintf("dkey.%04d", d))
			v, err := c.FetchSingle(oid, dk, []byte("meta"), EpochMax)
			if err != nil || v[0] != byte(o) || v[1] != byte(d) {
				t.Fatalf("obj %d dkey %d: %v %v", o, d, v, err)
			}
			arr, err := c.FetchArray(oid, dk, []byte("data"), EpochMax, int64(d)*10, 10)
			if err != nil || !bytes.Equal(arr, bytes.Repeat([]byte{byte(o)}, 10)) {
				t.Fatalf("obj %d dkey %d array: %v %v", o, d, arr, err)
			}
		}
	}
}

func TestObjectIDKeyOrdering(t *testing.T) {
	a := ObjectID{Hi: 1, Lo: 0xFFFFFFFFFFFFFFFF}
	b := ObjectID{Hi: 2, Lo: 0}
	if bytes.Compare(a.Key(), b.Key()) >= 0 {
		t.Fatal("OID key encoding does not sort by (Hi, Lo)")
	}
}
