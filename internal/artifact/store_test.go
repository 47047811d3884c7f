package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := sumStr("flow", "payload")
	payload := []byte(`{"hello":"world"}`)
	if err := s.Put("flow", d, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("flow", d)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: ok=%v got=%q", ok, got)
	}
	if _, ok := s.Get("suite", d); ok {
		t.Fatal("kind must be part of the address")
	}
	if _, ok := s.Get("flow", sumStr("flow", "other")); ok {
		t.Fatal("unknown digest must miss")
	}
	// Reopen: artifacts persist across processes.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("flow", d); !ok || !bytes.Equal(got, payload) {
		t.Fatal("artifact lost across reopen")
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Every corruption mode must read as a miss (with the corrupt counter
// bumped), never as an error or wrong payload.
func TestStoreCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := sumStr("flow", "x")
	payload := []byte("the payload bytes")
	if err := s.Put("flow", d, payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "flow-"+d.Hex()+".art")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func([]byte) []byte{
		"truncated-header":  func(b []byte) []byte { return b[:3] },
		"truncated-payload": func(b []byte) []byte { return b[:len(b)-40] },
		"bad-magic":         func(b []byte) []byte { b = append([]byte(nil), b...); b[0] ^= 0xFF; return b },
		"bad-version":       func(b []byte) []byte { b = append([]byte(nil), b...); b[11] ^= 0xFF; return b },
		"flipped-payload":   func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)-40] ^= 0x01; return b },
		"flipped-checksum":  func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)-1] ^= 0x01; return b },
		"empty":             func(b []byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		if err := os.WriteFile(path, corrupt(good), 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats().Corrupt
		if _, ok := s.Get("flow", d); ok {
			t.Errorf("%s: corrupted artifact served", name)
		}
		if s.Stats().Corrupt != before+1 {
			t.Errorf("%s: corrupt counter not bumped", name)
		}
	}
	// Restore: the original still reads back.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("flow", d); !ok || !bytes.Equal(got, payload) {
		t.Fatal("restored artifact unreadable")
	}
}

// Put leaves no temp files behind and overwrites atomically.
func TestStorePutAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := sumStr("k", "v")
	for i := 0; i < 3; i++ {
		if err := s.Put("k", d, []byte("same payload")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("store dir has %d entries %v, want 1", len(entries), names)
	}
}
