// This file implements the store itself; the package documentation
// lives in doc.go.
package goldenstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FormatVersion is the store's on-disk entry framing version. It covers
// the header layout only; the payload codec versions itself.
const FormatVersion = 1

// Key content-addresses one golden run. It mirrors the in-memory
// cache's key: the program's content hash, the time-noise seed, the run
// budget, and the capture mode (full-trace and fingerprint-only results
// are different shapes and must never satisfy each other's lookups).
type Key struct {
	Program [32]byte
	Seed    uint64
	Budget  int64
	Mode    uint8
}

const keyLen = 32 + 8 + 8 + 1

// bytes is the key's canonical binary form — the unit the Bloom filter
// hashes and the entry header embeds.
func (k Key) bytes() []byte {
	b := make([]byte, keyLen)
	copy(b, k.Program[:])
	binary.LittleEndian.PutUint64(b[32:], k.Seed)
	binary.LittleEndian.PutUint64(b[40:], uint64(k.Budget))
	b[48] = k.Mode
	return b
}

// filename is the key's content-addressed file name: readable, exact,
// and collision-free (the full 256-bit program hash is spelled out).
func (k Key) filename() string {
	return fmt.Sprintf("%064x-%016x-%016x-%02x.golden", k.Program, k.Seed, uint64(k.Budget), k.Mode)
}

// parseFilename inverts filename; ok is false for foreign files.
func parseFilename(name string) (Key, bool) {
	const want = 64 + 1 + 16 + 1 + 16 + 1 + 2 + len(".golden")
	if len(name) != want || !strings.HasSuffix(name, ".golden") {
		return Key{}, false
	}
	var k Key
	if _, err := hex.Decode(k.Program[:], []byte(name[:64])); err != nil {
		return Key{}, false
	}
	seed, err1 := strconv.ParseUint(name[65:81], 16, 64)
	budget, err2 := strconv.ParseUint(name[82:98], 16, 64)
	mode, err3 := strconv.ParseUint(name[99:101], 16, 8)
	if err1 != nil || err2 != nil || err3 != nil || name[64] != '-' || name[81] != '-' || name[98] != '-' {
		return Key{}, false
	}
	k.Seed, k.Budget, k.Mode = seed, int64(budget), uint8(mode)
	return k, true
}

// Stats counts the store's traffic since Open.
type Stats struct {
	// Hits is entries served (header, key, and checksum all verified).
	Hits uint64
	// Misses is lookups that found nothing servable; FilterSkips of
	// them never touched the disk (Bloom-negative), and Corrupt of them
	// found a file but rejected it (torn, stale, or checksum-bad —
	// still a miss, by policy).
	Misses      uint64
	FilterSkips uint64
	Corrupt     uint64
	// Puts is entries written.
	Puts uint64
}

// Store is the persistent golden tier. All methods are safe for
// concurrent use; several processes may share one directory (writers
// land entries atomically, and identical keys hold identical bytes
// because simulation is deterministic, so last-write-wins is sound).
//
// The Bloom filter snapshots the directory at Open and tracks this
// process's own Puts; entries written by *other* processes afterwards
// are invisible until Refresh or reopen — a stale negative only costs a
// re-simulation, never a wrong result.
type Store struct {
	dir string

	mu     sync.RWMutex
	gen    string // active generation directory (absolute)
	filter *bloom
	count  int    // keys added to the filter since it was sized
	cap    uint64 // filter's sized capacity, for regrow decisions
	stats  Stats
}

// Open opens (creating if needed) the store rooted at dir, loads the
// active generation's key set, and sizes the existence filter for it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("goldenstore: %w", err)
	}
	s := &Store{dir: dir}
	gen, err := s.currentGen()
	if err != nil {
		return nil, err
	}
	s.gen = gen
	if err := s.rescanLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// currentGen resolves (initializing if absent) the active generation.
func (s *Store) currentGen() (string, error) {
	cur := filepath.Join(s.dir, "CURRENT")
	raw, err := os.ReadFile(cur)
	name := strings.TrimSpace(string(raw))
	if err != nil || name == "" || strings.Contains(name, "/") || strings.Contains(name, "..") {
		name = "g000001"
		if werr := writeFileAtomic(cur, []byte(name+"\n")); werr != nil {
			return "", fmt.Errorf("goldenstore: init CURRENT: %w", werr)
		}
	}
	gen := filepath.Join(s.dir, name)
	if err := os.MkdirAll(gen, 0o755); err != nil {
		return "", fmt.Errorf("goldenstore: %w", err)
	}
	return gen, nil
}

// scanKeys lists the keys present in a generation directory.
func scanKeys(gen string) ([]Key, error) {
	ents, err := os.ReadDir(gen)
	if err != nil {
		return nil, fmt.Errorf("goldenstore: scan: %w", err)
	}
	var keys []Key
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if k, ok := parseFilename(e.Name()); ok {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// rescanLocked rebuilds the existence filter from the directory. Callers
// hold s.mu (or are single-threaded in Open).
func (s *Store) rescanLocked() error {
	keys, err := scanKeys(s.gen)
	if err != nil {
		return err
	}
	capacity := uint64(len(keys))*2 + 1024
	f := newBloom(capacity, 0.01)
	for _, k := range keys {
		f.add(k.bytes())
	}
	s.filter, s.count, s.cap = f, len(keys), capacity
	return nil
}

// Refresh rescans the directory, picking up entries other processes
// wrote since Open (or the last Refresh).
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rescanLocked()
}

// Len counts the entries on disk in the active generation, other
// processes' writes and not-yet-healed corrupt files included: the
// entries a Rebuild would consider.
func (s *Store) Len() (int, error) {
	s.mu.RLock()
	gen := s.gen
	s.mu.RUnlock()
	keys, err := scanKeys(gen)
	return len(keys), err
}

// StatsSnapshot returns the traffic counters so far.
func (s *Store) StatsSnapshot() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the store. No descriptors are held between calls, so
// this is bookkeeping symmetry, kept so callers can treat the store
// like any other resource.
func (s *Store) Close() error { return nil }

// Get returns a copy of the payload stored under k, or ok=false on any
// kind of absence: filter-negative, no file, torn file, stale format,
// key mismatch, checksum failure. Absence is never an error — the
// caller's fallback is a fresh simulation, which is always correct.
func (s *Store) Get(k Key) (payload []byte, ok bool) {
	ok = s.View(k, func(p []byte) { payload = bytes.Clone(p) })
	return payload, ok
}

// View calls fn with the payload stored under k and reports whether it
// did; absence is as for Get, and fn is not called. It is Get without
// the copy: the payload is lent, not given. It aliases a pooled read
// buffer that the next lookup reuses, so it is valid only until fn
// returns — fn must copy whatever it keeps and must not retain the slice.
func (s *Store) View(k Key, fn func(payload []byte)) bool {
	s.mu.RLock()
	gen := s.gen
	maybe := s.filter.mightContain(k.bytes())
	s.mu.RUnlock()
	if !maybe {
		s.mu.Lock()
		s.stats.Misses++
		s.stats.FilterSkips++
		s.mu.Unlock()
		return false
	}
	err := readEntry(filepath.Join(gen, k.filename()), k, fn)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.Misses++
		if !os.IsNotExist(err) {
			s.stats.Corrupt++
		}
		return false
	}
	s.stats.Hits++
	return true
}

// Put stores payload under k, atomically (temp + fsync + rename): a
// concurrent reader in any process sees the full entry or none.
// Overwriting an existing entry is permitted — determinism guarantees
// the bytes match.
func (s *Store) Put(k Key, payload []byte) error {
	s.mu.RLock()
	gen := s.gen
	s.mu.RUnlock()
	if err := writeEntry(gen, k, payload); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.filter.add(k.bytes())
	s.count++
	s.stats.Puts++
	// Regrow the filter before saturation lifts its false-positive rate;
	// a rescan also folds in any concurrent writers' entries.
	if uint64(s.count) > s.cap {
		if err := s.rescanLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Keys lists every entry in the active generation, sorted by file name
// (deterministic for tests and tooling). It reads the directory, not
// the filter, so it also sees other processes' writes.
func (s *Store) Keys() ([]Key, error) {
	s.mu.RLock()
	gen := s.gen
	s.mu.RUnlock()
	keys, err := scanKeys(gen)
	if err != nil {
		return nil, err
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].filename() < keys[j].filename() })
	return keys, nil
}

// Rebuild rewrites the whole store as one atomic operation: every
// servable entry for which keep returns true (nil keeps everything; its
// payload is lent, as in View) is copied into the next generation,
// CURRENT is swapped with a durable rename, and the old generation is
// removed. Unservable (corrupt, stale) entries are dropped — rebuild
// doubles as compaction and format-version garbage collection. Readers concurrently holding the
// store see a consistent generation throughout; other processes holding
// the *old* generation open degrade to misses after the removal, which
// re-simulates — never lies.
func (s *Store) Rebuild(keep func(Key, []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	oldGen := s.gen
	n, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(oldGen), "g"))
	if err != nil {
		return fmt.Errorf("goldenstore: rebuild: bad generation %q", filepath.Base(oldGen))
	}
	newName := fmt.Sprintf("g%06d", n+1)
	newGen := filepath.Join(s.dir, newName)
	if err := os.RemoveAll(newGen); err != nil {
		return fmt.Errorf("goldenstore: rebuild: %w", err)
	}
	if err := os.MkdirAll(newGen, 0o755); err != nil {
		return fmt.Errorf("goldenstore: rebuild: %w", err)
	}

	keys, err := scanKeys(oldGen)
	if err != nil {
		return err
	}
	for _, k := range keys {
		var werr error
		// A corrupt or stale entry fails the read and is compacted away.
		_ = readEntry(filepath.Join(oldGen, k.filename()), k, func(payload []byte) {
			if keep == nil || keep(k, payload) {
				werr = writeEntry(newGen, k, payload)
			}
		})
		if werr != nil {
			return werr
		}
	}
	syncDir(newGen)

	// The swap: one atomic CURRENT rewrite makes the new generation the
	// store. Everything before it is invisible; everything after it is
	// cleanup.
	if err := writeFileAtomic(filepath.Join(s.dir, "CURRENT"), []byte(newName+"\n")); err != nil {
		return fmt.Errorf("goldenstore: rebuild: swap: %w", err)
	}
	s.gen = newGen
	if err := s.rescanLocked(); err != nil {
		return err
	}
	if err := os.RemoveAll(oldGen); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("goldenstore: rebuild: drop old generation: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Entry framing

var magic = [4]byte{'O', 'F', 'G', 'S'}

const headerLen = 4 + 2 + keyLen + 8 // magic, version, key, payload length

// frameEntry lays out one entry: magic, format version, key, payload
// length, payload, and the payload's SHA-256.
func frameEntry(k Key, payload []byte) []byte {
	blob := make([]byte, 0, headerLen+len(payload)+sha256.Size)
	blob = append(blob, magic[:]...)
	blob = binary.LittleEndian.AppendUint16(blob, FormatVersion)
	blob = append(blob, k.bytes()...)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(payload)))
	blob = append(blob, payload...)
	sum := sha256.Sum256(payload)
	return append(blob, sum[:]...)
}

// writeEntry lands one entry crash-safely in gen.
func writeEntry(gen string, k Key, payload []byte) error {
	blob := frameEntry(k, payload)
	tmp, err := os.CreateTemp(gen, ".put-*")
	if err != nil {
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(gen, k.filename())); err != nil {
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	syncDir(gen)
	return nil
}

// readBufs recycles entry read buffers (*[]byte). A full-capture entry
// is hundreds of KiB; reading each hit into a fresh buffer made the warm
// path allocation-bound, and the payload only has to outlive readEntry's
// callback.
var readBufs sync.Pool

// readEntry loads one entry into a pooled buffer, verifies magic,
// version, key, length, and checksum, and only then lends the payload to
// fn. The buffer goes back to the pool when readEntry returns, so fn must
// not retain the payload. Every failure mode returns an error the caller
// maps to a miss (fn is not called); fs.ErrNotExist distinguishes plain
// absence from corruption for the stats.
func readEntry(path string, k Key, fn func(payload []byte)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size < headerLen+sha256.Size {
		return fmt.Errorf("goldenstore: entry truncated")
	}
	bp, _ := readBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer readBufs.Put(bp)
	if int64(cap(*bp)) < size {
		*bp = make([]byte, size)
	}
	blob := (*bp)[:size]
	if _, err := io.ReadFull(f, blob); err != nil {
		return fmt.Errorf("goldenstore: read entry: %w", err)
	}

	if [4]byte(blob[:4]) != magic {
		return fmt.Errorf("goldenstore: bad magic")
	}
	if v := binary.LittleEndian.Uint16(blob[4:6]); v != FormatVersion {
		return fmt.Errorf("goldenstore: stale format version %d", v)
	}
	if string(blob[6:6+keyLen]) != string(k.bytes()) {
		return fmt.Errorf("goldenstore: entry key mismatch")
	}
	plen := binary.LittleEndian.Uint64(blob[6+keyLen : headerLen])
	if uint64(size) != headerLen+plen+sha256.Size {
		return fmt.Errorf("goldenstore: entry length mismatch")
	}
	payload := blob[headerLen : headerLen+plen]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(blob[headerLen+plen:]) {
		return fmt.Errorf("goldenstore: checksum mismatch")
	}
	fn(payload)
	return nil
}

// writeFileAtomic lands content at path via temp + fsync + rename +
// directory fsync — the journal pattern from internal/farm.
func writeFileAtomic(path string, content []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir makes a rename durable. Directory fsync is unsupported on
// some filesystems; the rename already happened, so failure is advice.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
