// Package artifact is the content-addressed caching substrate: canonical
// versioned digests for the domain objects a solve depends on (chips,
// assays, solver option sets), a sharded unbounded once-map with
// singleflight semantics, and a disk store with atomic writes and
// corruption-tolerant loads. The flow, suite and test-set caches
// (internal/core) key the disk store by these digests, so a rerun with
// identical inputs skips its solve. The once-map is the plain memo of
// string-keyed work (flow evaluations, scheduler engines).
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/pso"
	"repro/internal/sched"
)

// Version is the digest schema version. It is folded into every digest,
// so changing the canonical encoding (or the semantics of any hashed
// field) invalidates all previously stored artifacts instead of serving
// stale ones.
const Version = 1

// Digest is a 32-byte content address (SHA-256 of a canonical encoding).
type Digest [sha256.Size]byte

// Hex returns the digest as lowercase hex.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Hasher builds a digest from a canonical, type-tagged binary encoding.
// Every primitive is framed with a tag byte and a fixed-width or
// length-prefixed payload, so adjacent values never alias ("ab","c" vs
// "a","bc") and the encoding is independent of struct field order in the
// source: callers emit fields in a fixed documented order, and helpers
// that hash maps sort the keys first.
type Hasher struct {
	h   hash.Hash
	buf [9]byte
}

// NewHasher starts a digest of the given kind. The kind and the package
// Version are part of the hash, so digests of different artifact kinds
// (or schema versions) never collide by construction.
func NewHasher(kind string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.tag('A')
	h.Uint(Version)
	h.Str(kind)
	return h
}

func (h *Hasher) tag(t byte) {
	h.buf[0] = t
	h.h.Write(h.buf[:1])
}

func (h *Hasher) u64(v uint64) {
	binary.BigEndian.PutUint64(h.buf[1:9], v)
	h.h.Write(h.buf[1:9])
}

// Int hashes a signed integer.
func (h *Hasher) Int(v int64) {
	h.tag('i')
	h.u64(uint64(v))
}

// Uint hashes an unsigned integer.
func (h *Hasher) Uint(v uint64) {
	h.tag('u')
	h.u64(v)
}

// Bool hashes a boolean.
func (h *Hasher) Bool(b bool) {
	if b {
		h.tag('T')
	} else {
		h.tag('F')
	}
}

// Str hashes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.tag('s')
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

// Ints hashes a length-prefixed int slice.
func (h *Hasher) Ints(v []int) {
	h.tag('I')
	h.u64(uint64(len(v)))
	for _, x := range v {
		h.u64(uint64(int64(x)))
	}
}

// Digest folds another digest in (composition of sub-artifact hashes).
func (h *Hasher) Digest(d Digest) {
	h.tag('D')
	h.h.Write(d[:])
}

// Begin opens a named struct/section frame; End closes it. Frames keep
// optional trailing sections (added in later schema versions) from
// aliasing with preceding fields.
func (h *Hasher) Begin(label string) {
	h.tag('(')
	h.Str(label)
}

// End closes the innermost frame opened by Begin.
func (h *Hasher) End() { h.tag(')') }

// Sum finalizes and returns the digest. The Hasher must not be used
// after Sum.
func (h *Hasher) Sum() Digest {
	var d Digest
	h.h.Sum(d[:0])
	return d
}

// HashChip digests a chip: name, grid dimensions, devices, ports, and
// every valve (original and DFT) with its guarded edge. Two chips with
// identical content always digest identically regardless of how they
// were constructed (loaded, generated, cloned, augmented edge-by-edge),
// because the encoding walks the canonical accessor order only.
func HashChip(c *chip.Chip) Digest {
	h := NewHasher("chip")
	h.Str(c.Name)
	h.Int(int64(c.Grid.W))
	h.Int(int64(c.Grid.H))
	h.Begin("devices")
	h.Uint(uint64(len(c.Devices)))
	for _, d := range c.Devices {
		h.Int(int64(d.ID))
		h.Int(int64(d.Kind))
		h.Str(d.Name)
		h.Int(int64(d.Node))
	}
	h.End()
	h.Begin("ports")
	h.Uint(uint64(len(c.Ports)))
	for _, p := range c.Ports {
		h.Int(int64(p.ID))
		h.Str(p.Name)
		h.Int(int64(p.Node))
	}
	h.End()
	h.Begin("valves")
	h.Uint(uint64(c.NumValves()))
	for _, v := range c.Valves() {
		h.Int(int64(v.ID))
		h.Int(int64(v.Edge))
		h.Bool(v.DFT)
	}
	h.End()
	h.Int(int64(c.NumOriginalValves()))
	return h.Sum()
}

// HashAssay digests an assay graph: name, operations (id, kind, name,
// duration) and the dependency edges. Successor lists are hashed in
// sorted order so the digest is independent of edge insertion order.
func HashAssay(g *assay.Graph) Digest {
	h := NewHasher("assay")
	h.Str(g.Name)
	ops := g.Ops()
	h.Uint(uint64(len(ops)))
	for _, op := range ops {
		h.Int(int64(op.ID))
		h.Int(int64(op.Kind))
		h.Str(op.Name)
		h.Int(int64(op.Duration))
	}
	h.Begin("edges")
	for _, op := range ops {
		succs := append([]int(nil), g.Succs(op.ID)...)
		sort.Ints(succs)
		h.Ints(succs)
	}
	h.End()
	return h.Sum()
}

// HashSchedParams digests scheduler parameters in canonical (defaulted)
// form, so a zero Params and an explicitly-defaulted Params digest
// identically.
func HashSchedParams(p sched.Params) Digest {
	p = p.Canonical()
	h := NewHasher("sched")
	h.Int(int64(p.TransportTimePerEdge))
	h.Int(int64(p.MaxTime))
	h.Int(int64(p.MaxReroutes))
	h.Int(int64(p.WashTimePerEdge))
	ban := func(v []int) {
		s := append([]int(nil), v...)
		sort.Ints(s)
		h.Ints(s)
	}
	ban(p.BanClosed)
	ban(p.BanOpen)
	h.Bool(p.RelaxStuckOpenSeal)
	return h.Sum()
}

// HashPSOConfig digests the semantic subset of a PSO configuration in
// canonical (defaulted) form. Execution-only fields — Workers and
// OnIteration — are excluded: they never change the search result (the
// engine is bit-identical for any worker count).
func HashPSOConfig(cfg pso.Config) Digest {
	cfg = cfg.Canonical()
	h := NewHasher("pso")
	h.Int(int64(cfg.Particles))
	h.Int(int64(cfg.Iterations))
	h.Int(cfg.Seed)
	return h.Sum()
}
