package offramps

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"offramps/internal/gcode"
	"offramps/internal/printer"
)

// FuzzDecodeGoldenResult feeds arbitrary bytes to the golden codec's
// decoder, the reader of every on-disk golden store entry. The contract
// under fuzzing: decode never panics, and whatever it accepts survives an
// encode→decode round trip unchanged. The corpus seeds are a real
// full-capture entry, a real fingerprint entry, and a tiny payload
// declaring 2^26 transactions. The real entries come from a five-line
// print rather than the test part, so each is ~10 KB instead of ~300 KB
// and mutating or minimizing one stays cheap.
func FuzzDecodeGoldenResult(f *testing.F) {
	prog, err := gcode.ParseString("G28\nG1 Z0.2 F600\nG1 X10 Y10 E1 F1800\nG1 X20 Y10 E2\nG1 X20 Y20 E3\n")
	if err != nil {
		f.Fatal(err)
	}
	for _, mode := range []CaptureMode{CaptureFull, CaptureFingerprint} {
		scens := []Scenario{{Name: "golden", Program: prog, Seed: 5}}
		results, err := Campaign{Workers: 1, CaptureMode: mode}.Run(context.Background(), scens)
		if err == nil {
			err = firstScenarioErr(results)
		}
		if err != nil {
			f.Fatal(err)
		}
		enc, err := encodeGoldenResult(results[0].Result)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(hugeCountPayload())

	f.Fuzz(func(t *testing.T, payload []byte) {
		first, err := decodeGoldenResult(payload)
		if err != nil {
			return
		}
		enc, err := encodeGoldenResult(first)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		second, err := decodeGoldenResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !sameGoldenResult(first, second) {
			t.Fatalf("round trip changed the result:\n first  %+v\n second %+v", first, second)
		}
	})
}

// sameGoldenResult reports whether two decoded golden results are equal.
// Floats travel as raw bits, so a fuzzed payload may carry NaNs, which
// reflect.DeepEqual never calls equal: the float-bearing fields are
// compared through their encoding instead, and everything else —
// recordings, fingerprints down to their unexported state, aliasing
// between tap views — structurally.
func sameGoldenResult(a, b *Result) bool {
	encA, errA := encodeGoldenResult(a)
	encB, errB := encodeGoldenResult(b)
	if errA != nil || errB != nil || !bytes.Equal(encA, encB) {
		return false
	}
	strip := func(r *Result) Result {
		c := *r
		c.Quality = printer.Quality{}
		c.PeakHotendTemp, c.PeakBedTemp = 0, 0
		c.FanDutyAtEnd, c.PeakFanDuty = 0, 0
		c.Part = nil
		return c
	}
	return reflect.DeepEqual(strip(a), strip(b))
}
