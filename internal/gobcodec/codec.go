// Package gobcodec encodes and decodes values of one type with
// encoding/gob, byte for byte as a fresh gob.Encoder and gob.Decoder would,
// but without re-sending and re-compiling the type description on every
// call.
//
// A fresh encoder writes the type-definition messages of a value's type
// and then one value message. A Codec learns those definitions once, by
// encoding the zero value (the definitions depend on the type, not the
// value), and keeps one long-lived encoder and decoder that have already
// seen them. Encode returns prefix || value message; Decode requires the
// prefix and feeds the single value message after it to the primed decoder.
// The simulator charges the length of these encodings as wire and media
// bytes, so the bytes themselves must not change.
package gobcodec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// Codec encodes and decodes values of type T. The zero value is ready to
// use and safe for concurrent use; it primes itself on first use. Type ids
// in the prefix are assigned by gob per process on first use of a type, so
// the prefix is learned at run time, never hard-coded.
type Codec[T any] struct {
	once    sync.Once
	initErr error
	primer  []byte // a fresh encoder's output for the zero T
	prefix  []byte // primer's type-definition messages

	mu  sync.Mutex
	buf bytes.Buffer
	enc *gob.Encoder // nil until primed, and after an encode error
	r   bytes.Reader
	dec *gob.Decoder // nil until primed, and after a decode error
}

// Errors for input the codec refuses before it reaches the decoder.
var (
	ErrPrefix  = errors.New("gobcodec: missing type-definition prefix")
	ErrMessage = errors.New("gobcodec: not exactly one value message after the prefix")
)

func (c *Codec[T]) init() error {
	c.once.Do(func() {
		var zero T
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(&zero); err != nil {
			c.initErr = fmt.Errorf("gobcodec: prime %T: %w", zero, err)
			return
		}
		c.primer = bytes.Clone(buf.Bytes())
		// Encoding again on the same encoder writes the value message alone;
		// everything the first call wrote before it is the prefix.
		buf.Reset()
		if err := enc.Encode(&zero); err != nil {
			c.initErr = fmt.Errorf("gobcodec: prime %T: %w", zero, err)
			return
		}
		if !bytes.HasSuffix(c.primer, buf.Bytes()) {
			c.initErr = fmt.Errorf("gobcodec: prime %T: value message is not a suffix of the first encoding", zero)
			return
		}
		c.prefix = c.primer[:len(c.primer)-buf.Len()]
	})
	return c.initErr
}

// Encode returns the bytes a fresh gob.Encoder writes for v.
func (c *Codec[T]) Encode(v T) ([]byte, error) {
	if err := c.init(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.enc == nil {
		var zero T
		c.buf.Reset()
		enc := gob.NewEncoder(&c.buf)
		if err := enc.Encode(&zero); err != nil {
			return nil, err
		}
		c.enc = enc
	}
	c.buf.Reset()
	if err := c.enc.Encode(&v); err != nil {
		c.enc = nil
		return nil, err
	}
	out := make([]byte, len(c.prefix)+c.buf.Len())
	copy(out, c.prefix)
	copy(out[len(c.prefix):], c.buf.Bytes())
	return out, nil
}

// Decode decodes data, which must be the codec's prefix followed by
// exactly one value message. Whatever it accepts decodes to the value a
// fresh gob.Decoder returns for data; it also rejects trailing bytes and
// type definitions beyond the prefix, which a long-lived decoder would
// otherwise remember across calls.
func (c *Codec[T]) Decode(data []byte) (T, error) {
	var v T
	if err := c.init(); err != nil {
		return v, err
	}
	if !bytes.HasPrefix(data, c.prefix) {
		return v, ErrPrefix
	}
	msg := data[len(c.prefix):]
	if !isValueMessage(msg) {
		return v, ErrMessage
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dec == nil {
		c.r.Reset(c.primer)
		dec := gob.NewDecoder(&c.r)
		var zero T
		if err := dec.Decode(&zero); err != nil {
			return v, err
		}
		c.dec = dec
	}
	c.r.Reset(msg)
	if err := c.dec.Decode(&v); err != nil {
		c.dec = nil
		var zero T
		return zero, err
	}
	return v, nil
}

// isValueMessage reports whether msg is exactly one gob message whose
// type id is not negative (a negative id introduces a type definition).
func isValueMessage(msg []byte) bool {
	count, n, ok := readUint(msg)
	if !ok || count != uint64(len(msg)-n) {
		return false
	}
	id, _, ok := readUint(msg[n:])
	return ok && id&1 == 0 // gob stores a negative int as an odd uint
}

// readUint decodes one gob unsigned integer: a byte below 0x80 is the value
// itself, otherwise the byte's negation counts the big-endian bytes after it.
func readUint(b []byte) (x uint64, n int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1, true
	}
	w := -int(int8(b[0]))
	if w > 8 || len(b) < 1+w {
		return 0, 0, false
	}
	for _, c := range b[1 : 1+w] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + w, true
}
