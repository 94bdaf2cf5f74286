package offramps

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/printer"
)

// goldenResultForTest simulates one golden print and returns its result.
func goldenResultForTest(t *testing.T, mode CaptureMode) *Result {
	t.Helper()
	prog := mustTestPart(t)
	scens := []Scenario{{Name: "golden", Program: prog, Seed: 5}}
	results, err := Campaign{Workers: 1, CaptureMode: mode}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(results); err != nil {
		t.Fatal(err)
	}
	return results[0].Result
}

// TestGoldenCodecRoundTrip: encode→decode over a real simulated golden is
// indistinguishable from the original — reflect.DeepEqual down to the
// unexported fingerprint state, in both capture modes.
func TestGoldenCodecRoundTrip(t *testing.T) {
	for _, mode := range []CaptureMode{CaptureFull, CaptureFingerprint} {
		t.Run(mode.String(), func(t *testing.T) {
			res := goldenResultForTest(t, mode)
			enc, err := encodeGoldenResult(res)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := decodeGoldenResult(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, dec) {
				t.Errorf("decoded golden differs from original:\n orig %+v\n dec  %+v", res, dec)
			}
			// Encoding is deterministic: same result, same bytes.
			enc2, err := encodeGoldenResult(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(enc, enc2) {
				t.Error("re-encoding the decoded result produced different bytes")
			}
		})
	}
}

// TestGoldenCodecPreservesAliasing: when a per-side view shares the
// primary recording/fingerprint object, the decoded result must share it
// too — consumers compare these by pointer.
func TestGoldenCodecPreservesAliasing(t *testing.T) {
	res := goldenResultForTest(t, CaptureFull)
	enc, err := encodeGoldenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeGoldenResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if (res.ArduinoRecording == res.Recording) != (dec.ArduinoRecording == dec.Recording) {
		t.Error("arduino recording aliasing not preserved")
	}
	if (res.RAMPSRecording == res.Recording) != (dec.RAMPSRecording == dec.Recording) {
		t.Error("ramps recording aliasing not preserved")
	}
	if (res.ArduinoFingerprint == res.Fingerprint) != (dec.ArduinoFingerprint == dec.Fingerprint) {
		t.Error("arduino fingerprint aliasing not preserved")
	}
	if (res.RAMPSFingerprint == res.Fingerprint) != (dec.RAMPSFingerprint == dec.Fingerprint) {
		t.Error("ramps fingerprint aliasing not preserved")
	}
}

// TestGoldenCodecFingerprintStaysLive: a decoded fingerprint must keep
// accepting Adds with correct delta accounting (the unexported previous-
// window counters are rehydrated, not zeroed).
func TestGoldenCodecFingerprintStaysLive(t *testing.T) {
	res := goldenResultForTest(t, CaptureFingerprint)
	enc, err := encodeGoldenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeGoldenResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	live, decoded := *res.Fingerprint, *dec.Fingerprint
	next := capture.Transaction{Index: uint32(live.Windows), X: 12345, Y: -7, Z: 99, E: 100000}
	live.Add(next)
	decoded.Add(next)
	if !live.Equal(&decoded) {
		t.Errorf("decoded fingerprint diverged after Add:\n live %v\n dec  %v", &live, &decoded)
	}
	if live.Axes != decoded.Axes {
		t.Errorf("axis summaries diverged after Add: %v vs %v", live.Axes, decoded.Axes)
	}
}

// TestGoldenCodecRejectsNonGolden: shapes the cache never memoizes —
// halts, aborts, detections — refuse to encode rather than persisting a
// lie.
func TestGoldenCodecRejectsNonGolden(t *testing.T) {
	cases := map[string]*Result{
		"nil":         nil,
		"halt-error":  {HaltError: fmt.Errorf("boom")},
		"aborted":     {Aborted: true},
		"aborted-at":  {AbortedAt: 1},
		"trip-reason": {TripReason: "thermal"},
		"detections":  {Detections: []*detect.Report{{}}},
		"trojan-flag": {TrojanLikely: true},
	}
	for name, res := range cases {
		if _, err := encodeGoldenResult(res); err == nil {
			t.Errorf("%s: non-golden result encoded without error", name)
		}
	}
}

// TestGoldenCodecRejectsMalformed: truncation prefixes, trailing
// garbage, and a foreign version must decode to an error, never a
// half-filled result. Every prefix of the fixed-width header region is
// tried; the long digest/deposit tail is sampled with a prime stride so
// the quadratic sweep stays fast under -race.
func TestGoldenCodecRejectsMalformed(t *testing.T) {
	res := goldenResultForTest(t, CaptureFingerprint)
	enc, err := encodeGoldenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	cuts := make([]int, 0, 2048)
	for i := 0; i < len(enc) && i < 1024; i++ {
		cuts = append(cuts, i)
	}
	for i := 1024; i < len(enc); i += 257 {
		cuts = append(cuts, i)
	}
	for i := len(enc) - 64; i < len(enc); i++ {
		if i >= 1024 {
			cuts = append(cuts, i)
		}
	}
	for _, i := range cuts {
		if _, err := decodeGoldenResult(enc[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(enc))
		}
	}
	if _, err := decodeGoldenResult(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	bad := append([]byte{}, enc...)
	bad[0] ^= 0xff // version word
	if _, err := decodeGoldenResult(bad); err == nil {
		t.Error("foreign codec version decoded without error")
	}
}

// hugeCountPayload is a 121-byte golden payload whose primary recording
// declares 2^26 transactions: a well-formed header, no part, then an
// inline recording with nothing after its count.
func hugeCountPayload() []byte {
	b := binary.LittleEndian.AppendUint32(nil, GoldenCodecVersion)
	b = append(b, 1)                          // Completed
	b = append(b, make([]byte, 8)...)         // Duration
	b = append(b, make([]byte, 6*8)...)       // Quality
	b = append(b, make([]byte, 2*8+1+2*8)...) // peak temps, safe flag, fan duties
	b = append(b, 0, 0)                       // no step-loss axes, no part
	b = append(b, slotInline)
	b = append(b, make([]byte, 2*8)...) // Period, StartedAt
	return binary.LittleEndian.AppendUint64(b, 1<<26)
}

// TestGoldenCodecCountBoundedByPayload: an element count is checked
// against the bytes left before anything is allocated from it, so a
// corrupt count in a tiny payload costs an error, not a 1.28 GB slice.
func TestGoldenCodecCountBoundedByPayload(t *testing.T) {
	payload := hugeCountPayload()
	if len(payload) != 121 {
		t.Fatalf("repro payload is %d bytes, want 121", len(payload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeGoldenResult(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("payload declaring 2^26 transactions in 0 bytes decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting the payload allocated %d bytes, want < 1 MiB", got)
	}

	// The same count in the deposit ledger's place.
	res := &Result{Part: printer.NewPart(0.2)}
	enc, err := encodeGoldenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	at := len(enc) - 3 - 3 - 8 // before the empty ledger's count: 3 nil recordings, 3 nil fingerprints
	binary.LittleEndian.PutUint64(enc[at:], 1<<26)
	if _, err := decodeGoldenResult(enc); err == nil {
		t.Error("payload declaring 2^26 deposits in 6 bytes decoded without error")
	}
}

// TestGoldenDecodeAllocatesOnlyItsResult: a store hit's decode allocates
// the slices it returns and little else. The deposit ledger is sized once
// from its count rather than regrown append by append (which cost ~3× the
// ledger in garbage), and no intermediate copy of the payload is made.
func TestGoldenDecodeAllocatesOnlyItsResult(t *testing.T) {
	enc, err := encodeGoldenResult(goldenResultForTest(t, CaptureFull))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeGoldenResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Recording == nil || dec.Part == nil {
		t.Fatal("full-capture golden decoded without a recording or part")
	}
	// The returned bulk: every distinct recording's transactions and the
	// deposit ledger, at their allocated capacity.
	var returned uintptr
	seen := map[*capture.Recording]bool{}
	for _, rec := range []*capture.Recording{dec.Recording, dec.ArduinoRecording, dec.RAMPSRecording} {
		if rec != nil && !seen[rec] {
			seen[rec] = true
			returned += uintptr(cap(rec.Transactions)) * unsafe.Sizeof(capture.Transaction{})
		}
	}
	returned += uintptr(cap(dec.Part.Deposits())) * unsafe.Sizeof(printer.Deposit{})

	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := decodeGoldenResult(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("decode made %.0f allocations, want at most 16", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := decodeGoldenResult(enc); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("decode: %.0f allocations, %d bytes for %d bytes of returned slices", allocs, perDecode, returned)
	if limit := uint64(float64(returned) * 1.1); perDecode > limit {
		t.Errorf("decode allocated %d bytes for %d bytes of returned slices, want at most %d (1.1×)",
			perDecode, returned, limit)
	}
}
