// Package serve is the compile-once serve-many layer: a content-addressed
// compile registry (the expensive map → schedule → merge → predecode
// pipeline runs at most once per unique program per process), a coalescing
// batch executor that merges concurrent callers' small requests into full
// 256-lane executor passes, and a TDO-CIM-style cost-model router that
// dispatches each request to the CIM simulator or the internal/cpu host
// baseline, whichever the latency model says wins. cmd/sherlock-serve puts
// an HTTP front door on it.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"sherlock"
	"sherlock/internal/dfg"
)

// Key is the content address of a compiled program: a SHA-256 over the
// canonical encoding of (kernel source or DFG structure, normalized
// Options). Identical compile requests — whatever process, whenever — map
// to the same Key, which is what lets the registry serve every repeat from
// cache.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the wire form).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex wire form.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return Key{}, fmt.Errorf("serve: malformed key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// keySchema versions the canonical encoding: bump it whenever the encoding
// below (or the meaning of an Options field) changes, so stale addresses
// can never alias new programs.
const keySchema = 2

// KeySource addresses a C-subset kernel compile: the key of
// (source text, normalized options). The source is hashed as written —
// formatting differences produce distinct keys, which is the conservative
// direction for a cache.
func KeySource(src string, opts sherlock.Options) Key {
	h := sha256.New()
	writeHeader(h, "c-src")
	writeOptions(h, opts)
	writeUint(h, uint64(len(src)))
	h.Write([]byte(src))
	return sum(h)
}

// KeyGraph addresses a programmatic DFG compile: the key of the graph's
// structural walk (inputs, ops in topological order with operand wiring,
// named outputs) and the normalized options. Graphs built by the same
// construction sequence hash identically; structurally equal graphs built
// in different orders may not — content addressing is per construction,
// not per isomorphism class, and the conservative direction is again extra
// misses, never false hits.
func KeyGraph(g *sherlock.Graph, opts sherlock.Options) Key {
	h := sha256.New()
	writeHeader(h, "dfg")
	writeOptions(h, opts)
	writeGraph(h, g)
	return sum(h)
}

func writeHeader(h hash.Hash, kind string) {
	writeUint(h, keySchema)
	writeStr(h, kind)
}

// writeOptions encodes every compilation-relevant Options field explicitly.
// The normalized form is hashed so that a zero field and its default
// resolve to the same address.
func writeOptions(h hash.Hash, opts sherlock.Options) {
	o := opts.Normalized()
	writeUint(h, uint64(o.Tech))
	writeUint(h, uint64(o.ArraySize))
	writeUint(h, uint64(o.Arrays))
	writeUint(h, uint64(o.Mapper))
	writeBool(h, o.MultiRowActivation)
	writeUint(h, math.Float64bits(o.MRAFraction))
	writeBool(h, o.NANDLowering)
	writeBool(h, o.RecycleRows)
	writeBool(h, o.WearLeveling)
	writeBool(h, o.VerifyEmitted)
	writeBool(h, o.VerifyEquivalence)
	writeBool(h, o.Resynthesize)
	writeUint(h, uint64(o.ResynthIterations))
}

func writeGraph(h hash.Hash, g *dfg.Graph) {
	ins := g.Inputs()
	writeUint(h, uint64(len(ins)))
	for _, in := range ins {
		writeUint(h, uint64(in))
		writeStr(h, g.Name(in))
	}
	ops := g.OpNodes()
	writeUint(h, uint64(len(ops)))
	var buf []dfg.NodeID
	for _, op := range ops {
		writeUint(h, uint64(op))
		writeUint(h, uint64(g.OpType(op)))
		writeUint(h, uint64(g.OpOutput(op)))
		buf = g.AppendOpInputs(op, buf[:0])
		writeUint(h, uint64(len(buf)))
		for _, in := range buf {
			writeUint(h, uint64(in))
		}
	}
	outs, names := g.Outputs(), g.OutputNames()
	writeUint(h, uint64(len(outs)))
	for i, out := range outs {
		writeUint(h, uint64(out))
		writeStr(h, names[i])
	}
}

func writeUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeBool(h hash.Hash, v bool) {
	if v {
		writeUint(h, 1)
	} else {
		writeUint(h, 0)
	}
}

// writeStr length-prefixes, keeping adjacent strings from aliasing.
func writeStr(h hash.Hash, s string) {
	writeUint(h, uint64(len(s)))
	h.Write([]byte(s))
}

func sum(h hash.Hash) Key {
	var k Key
	h.Sum(k[:0])
	return k
}
