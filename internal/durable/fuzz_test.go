package durable

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALRecord is the native fuzzer for the WAL record codec:
// arbitrary byte strings must never panic DecodeEvent, and any input
// that decodes must re-encode to a record that decodes back to the
// identical event (the codec is canonicalizing: a non-minimal varint
// in the input may shrink, but the event it denotes is fixed). The
// seed corpus is the sample-event encodings plus framing edge cases.
func FuzzWALRecord(f *testing.F) {
	for _, ev := range sampleEvents() {
		f.Add(EncodeEvent(nil, &ev))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	// A huge declared source length must be rejected, not allocated.
	f.Add([]byte{0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data)
		if err != nil {
			return // malformed records error out; they must not panic
		}
		re := EncodeEvent(nil, &ev)
		ev2, err := DecodeEvent(re)
		if err != nil {
			t.Fatalf("re-encoded record fails to decode: %v\nevent %+v", err, ev)
		}
		if !eventsEqual(&ev, &ev2) {
			t.Fatalf("re-encode round trip drifted:\nfirst  %+v\nsecond %+v", ev, ev2)
		}
	})
}

// FuzzCheckpoint is the native fuzzer for the checkpoint body codec —
// the same vocabulary and reader as WAL records, so one fuzzer family
// covers everything durable reads back. Arbitrary bytes must never
// panic decodeCheckpoint or make it allocate for a count the input
// could not hold, and whatever decodes must survive encode -> decode ->
// encode unchanged (the encoder is canonical: a non-minimal varint or
// an unsorted detector table in the input is normalised once, then
// fixed). Seeds: testdata/fuzz/FuzzCheckpoint plus the sample
// checkpoint, whole and by section.
func FuzzCheckpoint(f *testing.F) {
	sample := sampleCheckpoint()
	for _, cp := range []*Checkpoint{sample, {Seq: 1}, {Seq: 2, Watch: sample.Watch}, {Seq: 3, Semantics: sample.Semantics}} {
		var buf bytes.Buffer
		if err := encodeCheckpoint(&buf, cp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	// 2^40 declared windows in a 16-byte body.
	f.Add(binary.AppendUvarint([]byte{0, 0, 0, sectionWatch, 0, 0, 0, 0, 0, 0}, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := encodeCheckpoint(&first, cp); err != nil {
			t.Fatalf("decoded checkpoint fails to encode: %v", err)
		}
		cp2, err := decodeCheckpoint(first.Bytes())
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		var second bytes.Buffer
		if err := encodeCheckpoint(&second, cp2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode/decode is not the identity on decoded input:\nfirst  %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}
