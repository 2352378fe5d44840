package svc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// freshGob returns what a new gob.Encoder writes for v: the bytes the
// service sent and logged before it went through a primed codec. Their
// length is charged as the RPC size and the Raft entry and snapshot sizes,
// so the codec must match them.
func freshGob(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randCommand draws a command whose Props map holds at most one key, so
// gob's random map order cannot make two encodings differ.
func randCommand(rng *rand.Rand) Command {
	ops := []Op{OpCreatePool, OpDestroyPool, OpCreateCont, OpDestroyCont, OpSetAttr, OpGetAttr, OpListConts, OpQueryPool}
	c := Command{Op: ops[rng.Intn(len(ops))], Pool: fmt.Sprintf("p%d", rng.Intn(4))}
	if rng.Intn(2) == 0 {
		c.Cont, c.Key, c.Value = "c0", "k", fmt.Sprint(rng.Int63())
	}
	if rng.Intn(2) == 0 {
		c.Props = map[string]string{"class": "S2"}
	}
	if rng.Intn(2) == 0 {
		c.Targets = []int{0, rng.Int(), -1}
	}
	if rng.Intn(5) == 0 {
		c = Command{}
	}
	return c
}

func TestCommandCodecMatchesFreshGob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		c := randCommand(rng)
		got, err := commandCodec.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshGob(t, c); !bytes.Equal(got, want) {
			t.Fatalf("command %+v:\ncodec %x\nfresh %x", c, got, want)
		}
		back, err := commandCodec.Decode(got)
		if err != nil {
			t.Fatal(err)
		}
		var want Command
		if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&want); err != nil || !reflect.DeepEqual(back, want) {
			t.Fatalf("command %+v decoded to %+v, a fresh decoder gives %+v (%v)", c, back, want, err)
		}
	}
}

func TestStateCodecMatchesFreshGob(t *testing.T) {
	// Snapshot encoded the *State; gob writes the same bytes for the
	// pointer and the value.
	empty := NewState()
	one := NewState()
	one.Seq = ^uint64(0)
	one.apply(Command{Op: OpCreatePool, Pool: "p0", Targets: []int{1, 2}, Props: map[string]string{"a": "b"}})
	one.apply(Command{Op: OpCreateCont, Pool: "p0", Cont: "c0", Props: map[string]string{"k": "v"}})
	for _, st := range []*State{{}, empty, one} {
		got := st.Snapshot()
		if want := freshGob(t, st); !bytes.Equal(got, want) {
			t.Fatalf("state %+v:\ncodec %x\nfresh %x", st, got, want)
		}
	}
	// With several pools gob's map order is random: lengths match and the
	// state round-trips.
	many := NewState()
	for i := 0; i < 4; i++ {
		many.apply(Command{Op: OpCreatePool, Pool: fmt.Sprintf("p%d", i), Targets: []int{i}})
		many.apply(Command{Op: OpCreateCont, Pool: fmt.Sprintf("p%d", i), Cont: "c0"})
		many.apply(Command{Op: OpCreateCont, Pool: fmt.Sprintf("p%d", i), Cont: "c1"})
	}
	got := many.Snapshot()
	if want := freshGob(t, many); len(got) != len(want) {
		t.Fatalf("snapshot is %d bytes, a fresh encoder writes %d", len(got), len(want))
	}
	back := NewState()
	back.Restore(got)
	if !reflect.DeepEqual(back, many) {
		t.Fatalf("restored %+v, want %+v", back, many)
	}
}
