package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadFrame throws arbitrary bytes at the frame parser shared by the
// on-disk journal and the replication wire: it must never panic or
// over-allocate, and whenever it accepts a frame, re-framing the payload
// must reproduce exactly the bytes consumed — the round-trip property the
// scrubber and the shipping protocol both rest on. The same bytes then go
// through decodeRecords, the scan recovery, RepairSegment and Records run
// over a segment image: it must stop exactly where the leading run of
// accepted frames with record payloads ends, and rescanning that prefix
// must yield the same records.
func FuzzReadFrame(f *testing.F) {
	real, err := Frame([]byte(`{"k":2,"id":"s1","n":3,"a":true}`), maxRecordBytes)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)                                          // one valid frame
	f.Add(real[:len(real)/2])                            // torn mid-payload
	f.Add(real[:frameHeaderLen-2])                       // torn mid-header
	f.Add(append(append([]byte(nil), real...), real...)) // two frames back to back
	absurd := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(absurd[0:4], 0x7fffffff) // impossible length
	f.Add(absurd)
	flipped := append([]byte(nil), real...)
	flipped[frameHeaderLen] ^= 0xff // payload bit rot: checksum must catch it
	f.Add(flipped)
	notJSON, err := Frame([]byte("not a record"), maxRecordBytes)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Join([][]byte{real, notJSON, real}, nil)) // a CRC-valid frame whose payload is no record ends the prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var want []Record
		var wantValid int64
		records := true // every frame so far decoded as a record
		for {
			payload, err := ReadFrame(r, maxRecordBytes)
			if err != nil {
				break // corruption and EOF are legitimate outcomes
			}
			consumed := len(data) - r.Len()
			re, err := Frame(payload, maxRecordBytes)
			if err != nil {
				t.Fatalf("accepted payload of %d bytes cannot be re-framed: %v", len(payload), err)
			}
			start := consumed - len(re)
			if start < 0 || !bytes.Equal(data[start:consumed], re) {
				t.Fatalf("round-trip mismatch: frame at [%d:%d] does not re-encode to itself", start, consumed)
			}
			var rec Record
			if records && json.Unmarshal(payload, &rec) == nil {
				want = append(want, rec)
				wantValid = int64(consumed)
			} else {
				records = false
			}
		}

		var got []Record
		valid := decodeRecords(data, func(rec Record) { got = append(got, rec) })
		if valid != wantValid || !reflect.DeepEqual(got, want) {
			t.Fatalf("recovery scan kept %d bytes / %d records, want %d bytes / %d records", valid, len(got), wantValid, len(want))
		}
		var again []Record
		if v := decodeRecords(data[:valid], func(rec Record) { again = append(again, rec) }); v != valid || !reflect.DeepEqual(again, got) {
			t.Fatalf("rescanning the %d-byte valid prefix kept %d bytes / %d records, want all of it / %d", valid, v, len(again), len(got))
		}
	})
}
