package goldenstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadEntry writes arbitrary bytes at a key's entry path and reads
// them back through both lookups. Neither may panic, Get and View must
// agree, and a served payload must be exactly what frameEntry would have
// written for the key — so nothing is served unless the magic, version,
// key, length, and checksum all check.
func FuzzReadEntry(f *testing.F) {
	k := testKey(3)
	valid := frameEntry(k, []byte("golden payload bytes"))
	mutate := func(at int, delta byte) []byte {
		b := bytes.Clone(valid)
		b[at] += delta
		return b
	}
	longer := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(longer[6+keyLen:], 1<<63) // length prefix far past the file
	f.Add(valid)
	f.Add(frameEntry(k, nil))
	f.Add(frameEntry(testKey(4), []byte("another key's entry")))
	f.Add(valid[:len(valid)-1])          // torn tail
	f.Add(append(bytes.Clone(valid), 0)) // trailing byte
	f.Add(mutate(0, 1))                  // magic
	f.Add(mutate(4, 1))                  // format version
	f.Add(mutate(6, 1))                  // key
	f.Add(mutate(6+keyLen, 1))           // payload length
	f.Add(mutate(headerLen, 1))          // payload byte
	f.Add(mutate(len(valid)-1, 1))       // checksum
	f.Add(longer)                        // length overflow
	f.Add(valid[:headerLen])             // header only
	f.Add([]byte{})                      // empty file
	f.Add([]byte("rotten"))

	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	// A Put makes the filter admit k, so every lookup reaches the file.
	if err := s.Put(k, []byte("seed")); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(s.gen, k.filename())
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		f.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || string(got) != "golden payload bytes" {
		f.Fatalf("valid seed entry read back as %q, %v", got, ok)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		var viewed []byte
		calls := 0
		vok := s.View(k, func(p []byte) {
			calls++
			viewed = bytes.Clone(p)
		})
		if ok != vok {
			t.Fatalf("Get ok=%v but View ok=%v", ok, vok)
		}
		if (calls == 1) != vok || calls > 1 {
			t.Fatalf("View called fn %d times with ok=%v", calls, vok)
		}
		if !ok {
			return
		}
		if !bytes.Equal(got, viewed) {
			t.Fatalf("Get served %q, View lent %q", got, viewed)
		}
		if !bytes.Equal(frameEntry(k, got), blob) {
			t.Fatalf("served payload %q from an entry that does not frame it", got)
		}
	})
}
