package goldenstore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(b byte) Key {
	var k Key
	k.Program[0] = b
	k.Seed = uint64(b) + 7
	k.Budget = int64(b) * 1000
	k.Mode = b % 2
	return k
}

func storeLen(t *testing.T, s *Store) int {
	t.Helper()
	n, err := s.Len()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store served an entry")
	}
	payload := []byte("golden payload bytes")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	if n := storeLen(t, s); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	st := s.StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

func TestStoreReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 5; b++ {
		if err := s1.Put(testKey(b), []byte{b, b, b}); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh process: a new Store over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := storeLen(t, s2); n != 5 {
		t.Fatalf("reopened Len = %d, want 5", n)
	}
	for b := byte(1); b <= 5; b++ {
		got, ok := s2.Get(testKey(b))
		if !ok || !bytes.Equal(got, []byte{b, b, b}) {
			t.Fatalf("reopened Get(%d) = %q, %v", b, got, ok)
		}
	}
}

// TestStoreSeesOtherOpenersPuts: a Put through one Store is a hit
// through a second Store opened earlier on the same directory — how two
// worker processes sharing one store directory see each other's goldens.
func TestStoreSeesOtherOpenersPuts(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	if _, ok := b.Get(k); ok {
		t.Fatal("empty store served an entry")
	}
	payload := []byte("written by the other opener")
	if err := a.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("second opener Get = %q, %v; want the first opener's payload", got, ok)
	}
	if st := b.StatsSnapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("second opener stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestStoreKeyEncodingInverts(t *testing.T) {
	for b := byte(0); b < 8; b++ {
		k := testKey(b)
		got, ok := parseFilename(k.filename())
		if !ok || got != k {
			t.Fatalf("parseFilename(%q) = %+v, %v; want original key", k.filename(), got, ok)
		}
	}
	if _, ok := parseFilename("garbage.golden"); ok {
		t.Error("foreign file parsed as a key")
	}
}

// TestStoreCorruptEntryIsMiss covers the corruption policy: flipped
// payload bytes, truncation, a stale format version, and a wrong key
// under the right filename all read as misses — never errors — and a
// rewrite heals the entry.
func TestStoreCorruptEntryIsMiss(t *testing.T) {
	k := testKey(3)
	payload := []byte("the one true golden")
	corruptions := map[string]func([]byte) []byte{
		"flipped-payload-byte": func(b []byte) []byte {
			b[headerLen] ^= 0xff
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"stale-format-version": func(b []byte) []byte {
			b[4] = 0xfe
			return b
		},
		"bad-magic": func(b []byte) []byte {
			b[0] = 'X'
			return b
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.gen, k.filename())
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if st := s.StatsSnapshot(); st.Corrupt != 1 {
				t.Errorf("corruption not counted: %+v", st)
			}
			// The healing path: a fresh Put overwrites and serves again.
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed entry not served: %q, %v", got, ok)
			}
		})
	}
}

// TestStoreLenCountsDisk: Len counts entries on disk, so overwriting an
// entry — a plain repeat Put, or the Put that heals an entry a corrupt
// read just missed — does not count it twice. -golden-store-gc reports
// its "dropped" figure from Len.
func TestStoreLenCountsDisk(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(4)
	payload := []byte("healed golden")
	for i := 0; i < 2; i++ {
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := storeLen(t, s); n != 1 {
		t.Errorf("Len after a repeat Put = %d, want 1", n)
	}
	if err := os.WriteFile(filepath.Join(s.gen, k.filename()), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if n := storeLen(t, s); n != 1 || len(keys) != 1 {
		t.Errorf("after a heal: Len = %d, Keys = %d; want 1 and 1", n, len(keys))
	}
}

func TestStoreWrongKeyUnderFilename(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testKey(1), testKey(2)
	if err := s.Put(a, []byte("A")); err != nil {
		t.Fatal(err)
	}
	// Copy a's entry onto b's filename: the embedded key must reject it.
	blob, err := os.ReadFile(filepath.Join(s.gen, a.filename()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.gen, b.filename()), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("entry with mismatched embedded key was served")
	}
}

// TestStoreConcurrentReadersAndWriters exercises the store under -race:
// many goroutines reading and writing overlapping keys must never see a
// torn or foreign payload.
func TestStoreConcurrentReadersAndWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	payload := func(b byte) []byte {
		return bytes.Repeat([]byte{b}, 256)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := byte((g + i) % keys)
				if g%2 == 0 {
					if err := s.Put(testKey(b), payload(b)); err != nil {
						t.Error(err)
						return
					}
				}
				if got, ok := s.Get(testKey(b)); ok && !bytes.Equal(got, payload(b)) {
					t.Errorf("key %d served foreign payload", b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreRebuildAtomic: rebuild drops filtered and corrupt entries,
// survivors keep serving, the generation advances, and reopening sees
// exactly the rebuilt set.
func TestStoreRebuildAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 6; b++ {
		if err := s.Put(testKey(b), []byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt entry 6 in place; rebuild must compact it away.
	path := filepath.Join(s.gen, testKey(6).filename())
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Keep even keys only.
	if err := s.Rebuild(func(k Key, _ []byte) bool { return k.Program[0]%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(s.gen); got != "g000002" {
		t.Errorf("generation = %s, want g000002", got)
	}
	wantLive := map[byte]bool{2: true, 4: true}
	for b := byte(1); b <= 6; b++ {
		_, ok := s.Get(testKey(b))
		if ok != wantLive[b] {
			t.Errorf("after rebuild, key %d present=%v, want %v", b, ok, wantLive[b])
		}
	}
	// CURRENT points at the new generation for fresh processes too.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := storeLen(t, s2); n != 2 {
		t.Errorf("reopened Len = %d, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "g000001")); !os.IsNotExist(err) {
		t.Errorf("old generation not removed: %v", err)
	}
}

// TestStoreRebuildUnderReaders: readers racing a rebuild always get
// either the old or the new truth for every key, never an error or a
// foreign payload.
func TestStoreRebuildUnderReaders(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	for b := byte(0); b < keys; b++ {
		if err := s.Put(testKey(b), []byte{b, b}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for b := byte(0); b < keys; b++ {
					if got, ok := s.Get(testKey(b)); ok && !bytes.Equal(got, []byte{b, b}) {
						t.Errorf("key %d served foreign payload %q", b, got)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if err := s.Rebuild(nil); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := storeLen(t, s); n != keys {
		t.Errorf("Len = %d after identity rebuilds, want %d", n, keys)
	}
}
