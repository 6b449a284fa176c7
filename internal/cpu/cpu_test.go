package cpu

import "testing"

func smallCache() CacheConfig {
	return CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2, LatencyCycles: 2}
}

func TestCacheConfigValidate(t *testing.T) {
	if err := smallCache().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CacheConfig{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 1024, LineBytes: 0, Ways: 2},
		{SizeBytes: 1000, LineBytes: 64, Ways: 2}, // not divisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := NewCache(smallCache())
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) {
		t.Error("warm access missed")
	}
	if !c.Access(0x100 + 8) {
		t.Error("same-line access missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1024 B, 64 B lines, 2 ways -> 8 sets. Three lines mapping to the
	// same set: the least recently used must be evicted.
	c := NewCache(smallCache())
	setStride := uint64(8 * 64) // same set every 512 bytes
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a should still be resident")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestCacheCapacityStreaming(t *testing.T) {
	// Streaming through 4x the capacity must miss on every new line.
	c := NewCache(smallCache())
	misses := 0
	for addr := uint64(0); addr < 4096; addr += 64 {
		if !c.Access(addr) {
			misses++
		}
	}
	if misses != 64 {
		t.Errorf("streaming misses = %d, want 64", misses)
	}
}

func TestModelAccounting(t *testing.T) {
	m := NewModel(DefaultHierarchy())
	m.Load(0x1000)
	m.Store(0x1008)
	m.ALU(10)
	cost := m.Finish()
	if cost.Loads != 1 || cost.Stores != 1 || cost.ALUOps != 10 {
		t.Errorf("counts: %+v", cost)
	}
	if cost.Cycles <= 0 || cost.EnergyPJ <= 0 || cost.LatencyNS <= 0 {
		t.Error("non-positive totals")
	}
	if cost.EDP() != cost.EnergyPJ*cost.LatencyNS {
		t.Error("EDP definition drifted")
	}
	// At 1 GHz, latency in ns equals cycles.
	if cost.LatencyNS != cost.Cycles {
		t.Errorf("latency %f != cycles %f at 1 GHz", cost.LatencyNS, cost.Cycles)
	}
}

func TestMissesCostMoreThanHits(t *testing.T) {
	h := DefaultHierarchy()
	hot := NewModel(h)
	for i := 0; i < 1000; i++ {
		hot.Load(0x1000) // same line: hits after first
	}
	cold := NewModel(h)
	for i := 0; i < 1000; i++ {
		cold.Load(uint64(0x1000 + i*4096)) // new line every time
	}
	ch, cc := hot.Finish(), cold.Finish()
	if cc.Cycles <= ch.Cycles*2 {
		t.Errorf("DRAM-bound run (%f cyc) not clearly slower than cache-hot (%f cyc)", cc.Cycles, ch.Cycles)
	}
	if cc.EnergyPJ <= ch.EnergyPJ {
		t.Error("DRAM-bound run must burn more energy")
	}
	if cc.L1DMisses < 900 {
		t.Errorf("expected ~1000 L1D misses, got %d", cc.L1DMisses)
	}
}

func TestWorkloadsScaleWithSize(t *testing.T) {
	h := DefaultHierarchy()
	small := RunBitweaving(h, 64*100, 16)
	large := RunBitweaving(h, 64*1000, 16)
	if large.Cycles < 8*small.Cycles {
		t.Errorf("bitweaving did not scale: %f vs %f", small.Cycles, large.Cycles)
	}
	s1 := RunSobel(h, 66, 66)
	s2 := RunSobel(h, 130, 130)
	if s2.Cycles <= s1.Cycles {
		t.Error("sobel did not scale")
	}
	a1 := RunAES(h, 64, 30000, 32000)
	a2 := RunAES(h, 256, 30000, 32000)
	if a2.Cycles <= a1.Cycles {
		t.Error("AES did not scale")
	}
}

func TestWorkloadCharacteristics(t *testing.T) {
	h := DefaultHierarchy()
	// Bitweaving streams bit planes bigger than L2: many DRAM misses.
	bw := RunBitweaving(h, 64*8192, 16) // 16 planes x 64 KiB = 1 MiB
	if bw.L2Misses == 0 {
		t.Error("large bitweaving scan should spill past L2")
	}
	// Bit-sliced AES streams slice arrays far larger than L1: the hit
	// rate must be visibly below the cache-resident kernels'.
	aes := RunAES(h, 128, 34000, 35000)
	hitRate := float64(aes.L1DHits) / float64(aes.L1DHits+aes.L1DMisses)
	if hitRate > 0.995 {
		t.Errorf("bit-sliced AES L1 hit rate %.4f, want memory-bound behaviour", hitRate)
	}
	if aes.L2Misses == 0 {
		t.Error("bit-sliced AES should spill past L2 (280 KiB of slices)")
	}
	// Sobel has strong spatial reuse: hit rate well above streaming.
	so := RunSobel(h, 258, 258)
	soRate := float64(so.L1DHits) / float64(so.L1DHits+so.L1DMisses)
	if soRate < 0.9 {
		t.Errorf("sobel L1 hit rate %.2f, want >0.9 from 3x3 reuse", soRate)
	}
}

func TestNewModelPanicsOnBadTiming(t *testing.T) {
	h := DefaultHierarchy()
	h.ClockGHz = 0
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewModel(h)
}
