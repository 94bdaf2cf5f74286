package offramps

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/goldenstore"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

// TestGoldenCacheBitIdentical verifies the golden cache's core promise: a
// cache hit returns a result bit-identical to a fresh simulation of the
// same (program, seed, budget), and the golden is simulated exactly once.
func TestGoldenCacheBitIdentical(t *testing.T) {
	prog := mustTestPart(t)
	scens := []Scenario{{Name: "golden", Program: prog, Seed: 5}}

	fresh, err := Campaign{Workers: 1}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(fresh); err != nil {
		t.Fatal(err)
	}

	cache := NewGoldenCache()
	cached1, err := Campaign{Workers: 1, Cache: cache}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	cached2, err := Campaign{Workers: 1, Cache: cache}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(cached2); err != nil {
		t.Fatal(err)
	}

	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if cached1[0].Result != cached2[0].Result {
		t.Error("cache hit did not reuse the memoized result")
	}

	// Bit-identical against the fresh, uncached run.
	a, b := fresh[0].Result, cached2[0].Result
	if a.Duration != b.Duration || a.Quality != b.Quality {
		t.Errorf("cached golden differs from fresh: duration %v vs %v, quality %v vs %v",
			a.Duration, b.Duration, a.Quality, b.Quality)
	}
	if a.Recording.Len() != b.Recording.Len() {
		t.Fatalf("capture lengths differ: %d vs %d", a.Recording.Len(), b.Recording.Len())
	}
	for i := range a.Recording.Transactions {
		if a.Recording.Transactions[i] != b.Recording.Transactions[i] {
			t.Fatalf("cached transaction %d differs from fresh run", i)
		}
	}
}

// TestGoldenCacheKeySeparation verifies distinct seeds, programs, and
// budgets occupy distinct entries (content addressing, not name-based).
func TestGoldenCacheKeySeparation(t *testing.T) {
	prog := mustTestPart(t)
	flow, err := TestPartWithFlow(1.1)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewGoldenCache()
	c := Campaign{Workers: 2, Cache: cache}
	scens := []Scenario{
		{Name: "a", Program: prog, Seed: 1},
		{Name: "b", Program: prog, Seed: 2},       // same program, new seed
		{Name: "c", Program: flow, Seed: 1},       // new program, same seed
		{Name: "a-again", Program: prog, Seed: 1}, // duplicate of a
	}
	results, err := c.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(results); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3 (a, b, c)", cache.Len())
	}
	if results[0].Result != results[3].Result {
		t.Error("duplicate golden scenario did not share the memoized result")
	}
	if results[0].Result.Recording.Len() == 0 {
		t.Error("cached golden has empty capture")
	}
}

func TestGoldenCacheModeSeparation(t *testing.T) {
	gc := NewGoldenCache()
	fresh := func() (*Result, error) { return &Result{}, nil }
	k := goldenKey{seed: 1}
	kf := k
	kf.mode = CaptureFingerprint
	if _, err := gc.run(k, fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := gc.run(kf, fresh); err != nil {
		t.Fatal(err)
	}
	if gc.Len() != 2 {
		t.Fatalf("modes share a cache entry: len=%d", gc.Len())
	}
}

// TestGoldenCacheSkipsNonGoldenScenarios verifies scenarios carrying
// trojans or opaque options bypass the cache entirely.
func TestGoldenCacheSkipsNonGoldenScenarios(t *testing.T) {
	prog := mustTestPart(t)
	cache := NewGoldenCache()
	scens := []Scenario{
		{Name: "t2", Program: prog, Seed: 1, Trojan: func(uint64) fpga.Trojan {
			return trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5})
		}},
		{Name: "opts", Program: prog, Seed: 1, Options: []Option{WithSettle(3 * sim.Second)}},
	}
	results, err := Campaign{Workers: 1, Cache: cache}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(results); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Errorf("non-golden scenarios were cached: %d entries", cache.Len())
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("cache consulted for non-golden scenarios: %d hits / %d misses", hits, misses)
	}
}

// TestGoldenCacheStoreCrossProcessBitIdentical is the persistent-store
// extension of TestGoldenCacheBitIdentical: a cold process populates the
// store, a "fresh process" (new cache, reopened store) serves the same
// scenario from disk with zero golden simulations, and the served result
// is indistinguishable from a fresh, uncached run.
func TestGoldenCacheStoreCrossProcessBitIdentical(t *testing.T) {
	for _, mode := range []CaptureMode{CaptureFull, CaptureFingerprint} {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustTestPart(t)
			scens := []Scenario{{Name: "golden", Program: prog, Seed: 5}}
			dir := t.TempDir()

			fresh, err := Campaign{Workers: 1, CaptureMode: mode}.Run(context.Background(), scens)
			if err != nil {
				t.Fatal(err)
			}
			if err := firstScenarioErr(fresh); err != nil {
				t.Fatal(err)
			}

			// Cold process: memory miss, store miss, one simulation.
			store1, err := goldenstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cold := NewGoldenCache()
			cold.AttachStore(store1)
			coldRes, err := Campaign{Workers: 1, CaptureMode: mode, Cache: cold}.Run(context.Background(), scens)
			if err != nil {
				t.Fatal(err)
			}
			if err := firstScenarioErr(coldRes); err != nil {
				t.Fatal(err)
			}
			if sh, sm := cold.StoreStats(); sh != 0 || sm != 1 {
				t.Fatalf("cold store stats = %d/%d, want 0 hits / 1 miss", sh, sm)
			}
			if cold.Sims() != 1 {
				t.Fatalf("cold sims = %d, want 1", cold.Sims())
			}

			// Warm "process": a brand-new cache over a reopened store.
			store2, err := goldenstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			warm := NewGoldenCache()
			warm.AttachStore(store2)
			warmRes, err := Campaign{Workers: 1, CaptureMode: mode, Cache: warm}.Run(context.Background(), scens)
			if err != nil {
				t.Fatal(err)
			}
			if err := firstScenarioErr(warmRes); err != nil {
				t.Fatal(err)
			}
			if warm.Sims() != 0 {
				t.Errorf("warm process simulated %d goldens, want 0", warm.Sims())
			}
			if sh, sm := warm.StoreStats(); sh != 1 || sm != 0 {
				t.Errorf("warm store stats = %d/%d, want 1 hit / 0 misses", sh, sm)
			}
			if !reflect.DeepEqual(fresh[0].Result, warmRes[0].Result) {
				t.Error("store-served golden differs from a fresh, uncached run")
			}
			if !reflect.DeepEqual(coldRes[0].Result, warmRes[0].Result) {
				t.Error("store-served golden differs from the run that populated it")
			}
		})
	}
}

// TestGoldenCacheSharesStoreAcrossOpeners: two caches, each over its own
// Store opened on one directory before either ran anything — two
// co-located workers sharing -golden-store. The golden the first one
// simulates is served to the second from disk, with no simulation.
func TestGoldenCacheSharesStoreAcrossOpeners(t *testing.T) {
	scens := []Scenario{{Name: "golden", Program: mustTestPart(t), Seed: 5}}
	dir := t.TempDir()
	var caches [2]*GoldenCache
	for i := range caches {
		store, err := goldenstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = NewGoldenCache()
		caches[i].AttachStore(store)
	}
	var results [2][]ScenarioResult
	for i, gc := range caches {
		res, err := Campaign{Workers: 1, Cache: gc}.Run(context.Background(), scens)
		if err != nil {
			t.Fatal(err)
		}
		if err := firstScenarioErr(res); err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if caches[0].Sims() != 1 {
		t.Fatalf("first cache sims = %d, want 1", caches[0].Sims())
	}
	if caches[1].Sims() != 0 {
		t.Errorf("second cache simulated %d goldens the first one had stored, want 0", caches[1].Sims())
	}
	if !reflect.DeepEqual(results[0][0].Result, results[1][0].Result) {
		t.Error("shared golden differs from the run that stored it")
	}
}

// TestGoldenCacheStoreCorruptFallsBackToSim: on-disk corruption of every
// persisted entry degrades to re-simulation — same bytes out, no error.
func TestGoldenCacheStoreCorruptFallsBackToSim(t *testing.T) {
	prog := mustTestPart(t)
	scens := []Scenario{{Name: "golden", Program: prog, Seed: 5}}
	dir := t.TempDir()

	store1, err := goldenstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewGoldenCache()
	cold.AttachStore(store1)
	coldRes, err := Campaign{Workers: 1, Cache: cold}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(coldRes); err != nil {
		t.Fatal(err)
	}

	// Trash every persisted entry in place.
	entries, err := filepath.Glob(filepath.Join(dir, "g*", "*.golden"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no persisted entries to corrupt (%v)", err)
	}
	for _, path := range entries {
		if err := os.WriteFile(path, []byte("rotten"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := goldenstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewGoldenCache()
	warm.AttachStore(store2)
	warmRes, err := Campaign{Workers: 1, Cache: warm}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(warmRes); err != nil {
		t.Fatal(err)
	}
	if warm.Sims() != 1 {
		t.Errorf("corrupt store did not fall back to simulation: sims = %d", warm.Sims())
	}
	if !reflect.DeepEqual(coldRes[0].Result, warmRes[0].Result) {
		t.Error("re-simulated result differs from the original")
	}
	// The fallback path healed the store: a third process hits clean.
	store3, err := goldenstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	healed := NewGoldenCache()
	healed.AttachStore(store3)
	if _, err := (Campaign{Workers: 1, Cache: healed}).Run(context.Background(), scens); err != nil {
		t.Fatal(err)
	}
	if healed.Sims() != 0 {
		t.Errorf("healed store still simulating: sims = %d", healed.Sims())
	}
}

// TestGoldenCacheFailedOwnerWaitersRetry is the joined-waiter bugfix
// test: when the first caller's computation fails, callers that joined
// it must re-attempt the key themselves rather than inherit the owner's
// error — and a join served no result must not count as a hit.
func TestGoldenCacheFailedOwnerWaitersRetry(t *testing.T) {
	gc := NewGoldenCache()
	key := goldenKey{seed: 42}
	ownerIn := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	fresh := func() (*Result, error) {
		if calls.Add(1) == 1 {
			close(ownerIn)
			<-release
			return nil, errors.New("transient owner failure")
		}
		return &Result{Completed: true}, nil
	}

	ownerErr := make(chan error, 1)
	go func() {
		_, err := gc.run(key, fresh)
		ownerErr <- err
	}()
	<-ownerIn

	// Waiters join the in-flight (doomed) computation.
	const waiters = 4
	var wg sync.WaitGroup
	type outcome struct {
		res *Result
		err error
	}
	outcomes := make(chan outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := gc.run(key, fresh)
			outcomes <- outcome{res, err}
		}()
	}
	close(release)
	wg.Wait()
	close(outcomes)

	if err := <-ownerErr; err == nil {
		t.Error("owner's own failure was swallowed")
	}
	for o := range outcomes {
		if o.err != nil {
			t.Errorf("waiter inherited the owner's error: %v", o.err)
		} else if o.res == nil || !o.res.Completed {
			t.Errorf("waiter served a wrong result: %+v", o.res)
		}
	}
	if gc.Len() != 1 {
		t.Errorf("cache len = %d after retry, want 1", gc.Len())
	}
	// Hits only for joins actually served a settled result; the failed
	// round contributes misses (owner + re-attempting waiters), never hits.
	hits, misses := gc.Stats()
	if hits+misses != waiters+1 {
		t.Errorf("stats = %d hits / %d misses, want %d total", hits, misses, waiters+1)
	}
	if misses < 2 {
		t.Errorf("misses = %d, want >= 2 (failed owner + retry owner)", misses)
	}
	if int(calls.Load()) < 2 {
		t.Errorf("fresh called %d times, want >= 2", calls.Load())
	}
	// The settled entry now serves hits.
	before := calls.Load()
	if res, err := gc.run(key, fresh); err != nil || !res.Completed {
		t.Fatalf("settled entry not served: %v, %v", res, err)
	}
	if calls.Load() != before {
		t.Error("settled entry recomputed")
	}
}

// TestGoldenCacheChurnInvariants drives the cache through concurrent
// hits, misses, and failed owners (run under -race in CI) and checks the
// accounting invariants afterwards: bytes never negative, and once
// quiescent every settled entry counted in Bytes exactly once while no
// failed owner left an entry behind.
func TestGoldenCacheChurnInvariants(t *testing.T) {
	gc := NewGoldenCache()
	key := func(b byte) goldenKey { return goldenKey{program: [32]byte{b}} }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := byte((g + i) % 8)
				fail := (g+i)%5 == 0
				res, err := gc.run(key(b), func() (*Result, error) {
					if fail {
						return nil, errors.New("synthetic failure")
					}
					return &Result{}, nil
				})
				// A caller that owns a failing compute gets the error;
				// everyone served must get a result.
				if err == nil && res == nil {
					t.Error("nil result without error")
					return
				}
				if gc.Bytes() < 0 {
					t.Errorf("bytes negative mid-churn: %d", gc.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := gc.Len(); n == 0 || n > 8 {
		t.Errorf("len = %d after churn over 8 keys, want 1..8", n)
	}
	if want := int64(gc.Len()) * resultBytes(&Result{}); gc.Bytes() != want {
		t.Errorf("bytes = %d after churn, want %d (one count per settled entry)", gc.Bytes(), want)
	}
	hits, misses := gc.Stats()
	if hits+misses == 0 {
		t.Error("no traffic recorded")
	}
}

// TestHashProgramPinned pins the program hash, which is every persisted
// store key: a changed digest would silently turn every existing store
// cold. The cases cover the paper's test part, a bare word, and a command
// whose encoding overflows hashProgram's stack chunk.
func TestHashProgramPinned(t *testing.T) {
	var words []gcode.Word
	for i := 0; i < 300; i++ {
		words = append(words, gcode.Word{Letter: byte('A' + i%26), Value: float64(i) * 0.125, Bare: i%7 == 3})
	}
	cases := []struct {
		name string
		prog gcode.Program
		want string
	}{
		{"testpart", mustTestPart(t), "bae448318052cabc82b5544248b7c9608afd0c935da5485e20bcc90e598ccf5e"},
		{"bare word", gcode.Program{{Code: "G28", Words: []gcode.Word{{Letter: 'X', Bare: true}, {Letter: 'Y'}}}},
			"8b4894c4849a3a6ecde3cd0d8563d1c1d9d2d6923d1ebc0f98af25977d9d871f"},
		{"over-chunk command", gcode.Program{{Code: "G1"}, {Code: "M" + strings.Repeat("9", 1500), Words: words}, {Code: "M84"}},
			"585fb8202a52aedc58298bd16c9bb7ece332c186762c0140e31fdda7e2eab16a"},
	}
	for _, c := range cases {
		if got := fmt.Sprintf("%x", hashProgram(c.prog)); got != c.want {
			t.Errorf("%s: hashProgram = %s, want %s", c.name, got, c.want)
		}
	}
	prog := cases[0].prog
	if allocs := testing.AllocsPerRun(10, func() { hashProgram(prog) }); allocs != 0 {
		t.Errorf("hashing the test part allocated %.0f times, want 0", allocs)
	}
}

// TestGoldenStoreHitsDoNotAliasReadBuffer: the store lends each hit's
// payload from a pooled read buffer that the next hit overwrites, so a
// served golden must own every byte it holds. Two different entries are
// served one after the other, then from two goroutines at once (the race
// detector watches the buffer), and every result must equal the golden
// that was stored.
func TestGoldenStoreHitsDoNotAliasReadBuffer(t *testing.T) {
	prog := mustTestPart(t)
	store, err := goldenstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fill := NewGoldenCache()
	fill.AttachStore(store)
	scens := []Scenario{{Name: "a", Program: prog, Seed: 5}, {Name: "b", Program: prog, Seed: 6}}
	stored, err := Campaign{Workers: 2, Cache: fill}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(stored); err != nil {
		t.Fatal(err)
	}

	keys := make([]goldenKey, len(scens))
	for i, s := range scens {
		keys[i] = goldenKey{program: hashProgram(prog), seed: s.Seed, budget: DefaultRunBudget, mode: CaptureFull}
	}
	// serve reads one entry through a fresh cache, so the store — not the
	// memory tier — answers.
	serve := func(i int) (*Result, error) {
		gc := NewGoldenCache()
		gc.AttachStore(store)
		return gc.run(keys[i], func() (*Result, error) {
			return nil, errors.New("store missed a golden it holds")
		})
	}
	check := func(i int, res *Result) {
		t.Helper()
		if !reflect.DeepEqual(res, stored[i].Result) {
			t.Errorf("golden %q served from the store differs from the one stored", scens[i].Name)
		}
	}

	a, errA := serve(0)
	b, errB := serve(1)
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	check(0, a)
	check(1, b)

	const rounds = 6
	var got [2][rounds]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				res, err := serve((g + r) % 2)
				if err != nil {
					errs[g] = err
					return
				}
				got[g][r] = res
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
	}
	for g := range got {
		for r, res := range got[g] {
			check((g+r)%2, res)
		}
	}
}
