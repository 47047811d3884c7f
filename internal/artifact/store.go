package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// storeMagic heads every artifact file; storeVersion is the on-disk
// container version (the payload schema is versioned separately by the
// codec that produced it, and Version is part of every digest).
var storeMagic = [4]byte{'D', 'F', 'T', 'A'}

const storeVersion = 1

// Store is the artifact cache on disk: one file per artifact, named by kind
// and digest, written atomically (temp file + rename) with an embedded
// checksum. Loads are corruption-tolerant — any truncated, altered or
// foreign file reads as a miss, never an error, so a damaged cache
// directory only costs recomputation.
type Store struct {
	dir string

	gets    atomic.Int64
	hits    atomic.Int64
	puts    atomic.Int64
	corrupt atomic.Int64
}

// StoreStats is a point-in-time counter snapshot.
type StoreStats struct {
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Puts    int64 `json:"puts"`
	Corrupt int64 `json:"corrupt"`
}

// OpenStore opens (creating if needed) a disk store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(kind string, d Digest) string {
	return filepath.Join(s.dir, kind+"-"+d.Hex()+".art")
}

// Put atomically persists payload under (kind, digest). Failures are
// returned but safe to ignore: the store is an accelerator, never the
// source of truth.
func (s *Store) Put(kind string, d Digest, payload []byte) error {
	buf := make([]byte, 0, len(storeMagic)+8+8+len(kind)+8+len(payload)+sha256.Size)
	buf = append(buf, storeMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, storeVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(kind)))
	buf = append(buf, kind...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)

	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put: %w", err)
	}
	if err := os.Rename(tmpName, s.path(kind, d)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Get loads the payload stored under (kind, digest). It returns
// (nil, false) on a miss or on any corruption: bad magic, wrong
// version, mismatched kind, truncation, or checksum failure.
func (s *Store) Get(kind string, d Digest) ([]byte, bool) {
	s.gets.Add(1)
	raw, err := os.ReadFile(s.path(kind, d))
	if err != nil {
		return nil, false
	}
	bad := func() ([]byte, bool) {
		s.corrupt.Add(1)
		return nil, false
	}
	if len(raw) < len(storeMagic)+16 {
		return bad()
	}
	if [4]byte(raw[:4]) != storeMagic {
		return bad()
	}
	raw = raw[4:]
	if binary.BigEndian.Uint64(raw[:8]) != storeVersion {
		return bad()
	}
	kl := binary.BigEndian.Uint64(raw[8:16])
	raw = raw[16:]
	if uint64(len(raw)) < kl+8 {
		return bad()
	}
	if string(raw[:kl]) != kind {
		return bad()
	}
	raw = raw[kl:]
	pl := binary.BigEndian.Uint64(raw[:8])
	raw = raw[8:]
	if uint64(len(raw)) != pl+sha256.Size {
		return bad()
	}
	payload := raw[:pl]
	var want [sha256.Size]byte
	copy(want[:], raw[pl:])
	if sha256.Sum256(payload) != want {
		return bad()
	}
	s.hits.Add(1)
	return payload, true
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Gets:    s.gets.Load(),
		Hits:    s.hits.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
	}
}
