package cpu

// Trace generators for the three evaluation kernels running on the
// baseline CPU. Each walks the kernel's natural data layout and replays
// its loads, stores and ALU operations through the cost model — the same
// role the gem5 CPU runs play in the paper's Fig. 7.

// Address-space bases keeping the streams apart.
const (
	baseData   = 0x1000_0000
	baseAux    = 0x2000_0000
	baseTables = 0x3000_0000
	baseOut    = 0x4000_0000
)

// RunBitweaving scans `values` codes of `bits` bits with BitWeaving-V: the
// codes are stored vertically (one 64-lane machine word per code bit), and
// the BETWEEN predicate updates four mask registers per bit per word.
func RunBitweaving(h Hierarchy, values, bits int) Cost {
	m := NewModel(h)
	words := (values + 63) / 64
	for w := 0; w < words; w++ {
		for b := 0; b < bits; b++ {
			// Vertical layout: bit plane b is a contiguous word array.
			m.Load(uint64(baseData + (b*words+w)*8))
			// lt/eq1/gt/eq2 updates: ~8 register ops per bit.
			m.ALU(8)
		}
		m.Store(uint64(baseOut + w*8)) // result bit-vector word
	}
	return m.Finish()
}

// RunSobel runs byte-wise Sobel over a width x height 8-bit image,
// streaming row-major with a 3x3 neighborhood per output pixel.
func RunSobel(h Hierarchy, width, height int) Cost {
	m := NewModel(h)
	for y := 1; y < height-1; y++ {
		for x := 1; x < width-1; x++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					m.Load(uint64(baseData + (y+dy)*width + (x + dx)))
				}
			}
			// Gx, Gy accumulation, abs, add, threshold: ~16 ops.
			m.ALU(16)
			m.Store(uint64(baseOut + y*width + x))
		}
	}
	return m.Finish()
}

// RunGateNetwork models one 64-lane bit-sliced pass over an arbitrary
// gate network on the baseline core: each of `gates` gates is two slice
// loads, one ALU op and one slice store over a working set of `operands`
// slice words, with the same strided operand probe RunAES uses (a gate
// mostly reads recent intermediates but regularly reaches back). This is
// the generic per-kernel cost the serving layer's TDO-CIM-style router
// compares against the measured CIM pass latency: any compiled DFG
// summarizes to (gates, operands) without a hand-written trace.
func RunGateNetwork(h Hierarchy, gates, operands int) Cost {
	m := NewModel(h)
	if operands < 1 {
		operands = 1
	}
	for gate := 0; gate < gates; gate++ {
		a := (gate*2 + 17) % operands
		b := (gate*7 + 101) % operands
		out := gate % operands
		m.Load(uint64(baseTables + a*8))
		m.Load(uint64(baseTables + b*8))
		m.ALU(1)
		m.Store(uint64(baseTables + out*8))
	}
	return m.Finish()
}

// RunAES encrypts `blocks` 16-byte blocks with *bit-sliced* software
// AES-128 — the same kernel form the CIM side executes (the paper's flow
// compiles the Usuba bit-sliced implementation for both targets). The CPU
// packs 64 blocks per machine word; each gate of the `gates`-gate network
// is two slice loads, one ALU op and one slice store over a working set of
// `operands` slice words, which for real AES exceeds the L2 and produces
// the memory-bound behaviour CIM sidesteps.
func RunAES(h Hierarchy, blocks, gates, operands int) Cost {
	m := NewModel(h)
	if operands < 1 {
		operands = 1
	}
	batches := (blocks + 63) / 64
	for batch := 0; batch < batches; batch++ {
		// Transpose plaintext into slice form: 128 slice words touched.
		for i := 0; i < 128; i++ {
			m.Load(uint64(baseData + (batch*128+i)*8))
			m.Store(uint64(baseAux + i*8))
			m.ALU(4) // shuffle/interleave steps, amortized
		}
		// Gate network over the slice arrays. Operand indices follow the
		// DFG's creation order: a gate reads recent intermediates most of
		// the time but regularly reaches back (inputs, round keys,
		// ShiftRows renaming), which the strided probe models.
		for gate := 0; gate < gates; gate++ {
			a := (gate*2 + 17) % operands
			b := (gate*7 + 101) % operands
			out := gate % operands
			m.Load(uint64(baseTables + a*8))
			m.Load(uint64(baseTables + b*8))
			m.ALU(1)
			m.Store(uint64(baseTables + out*8))
		}
		// Transpose ciphertext back out.
		for i := 0; i < 128; i++ {
			m.Load(uint64(baseAux + i*8))
			m.Store(uint64(baseOut + (batch*128+i)*8))
			m.ALU(4)
		}
	}
	return m.Finish()
}
