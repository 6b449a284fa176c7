// Streaming benchmarks: the million-row analytics throughput comparison
// (streamed fused-COUNT vs one materializing RunBatchWords pass), the
// steady-state allocation proof, and the chunk-width sweep. They live in
// the package itself because the sweep forces chunk widths through
// atChunkWords. BenchmarkRunStream/stream is the BENCH_8
// headline number.
package sherlock

import (
	"fmt"
	"math/bits"
	"testing"

	"sherlock/internal/workloads/analytics"
)

const streamBenchRows = 1_000_000

// compileScanBench builds the default bitmap-index COUNT plan and its
// million-row packed input block.
func compileScanBench(b *testing.B) (*Compiled, []uint64) {
	b.Helper()
	plan := analytics.DefaultScanConfig()
	g, err := analytics.BuildScan(plan)
	if err != nil {
		b.Fatal(err)
	}
	c, err := CompileGraph(g, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		b.Fatal(err)
	}
	in, err := analytics.PackedData(c.InputNames(), "col", streamBenchRows, 42)
	if err != nil {
		b.Fatal(err)
	}
	return c, in
}

// BenchmarkRunStream is the million-row bitmap-index COUNT plan end to
// end. The stream variant must hold 0 allocs/op in steady state (warmed
// Streamer + sink) and beat the batch variant's rows/sec — the streaming
// layer's acceptance bar.
func BenchmarkRunStream(b *testing.B) {
	c, in := compileScanBench(b)

	b.Run("stream", func(b *testing.B) {
		s, err := c.NewStreamer(StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var sink CountSink
		// Warm machines and sink accumulators out of the
		// measured (and allocation-counted) region.
		if err := s.Run(in, streamBenchRows, &sink); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Run(in, streamBenchRows, &sink); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(streamBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows_per_sec")
		b.ReportMetric(float64(sink.Counts[0]), "matches")
	})

	b.Run("batch", func(b *testing.B) {
		// The materializing path on the same plan: RunBatchWords runs the
		// same stream but copies the match bitmap out, host popcount to
		// finish — the gap to "stream" is the fused sink.
		var out []uint64
		var err error
		var count int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err = c.RunBatchWords(in, streamBenchRows, out, 0)
			if err != nil {
				b.Fatal(err)
			}
			count = 0
			for _, w := range out[:(streamBenchRows+63)/64] {
				count += int64(bits.OnesCount64(w))
			}
		}
		b.ReportMetric(float64(streamBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows_per_sec")
		b.ReportMetric(float64(count), "matches")
	})
}

// BenchmarkStreamChunkWidth sweeps the chunk width: the per-micro-op
// dispatch amortization is the single biggest lever on a small kernel, so
// this documents why the auto-sizer prefers wide chunks.
func BenchmarkStreamChunkWidth(b *testing.B) {
	c, in := compileScanBench(b)
	for _, words := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("words%d", words), func(b *testing.B) {
			s, err := atChunkWords(c, words).NewStreamer(StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var sink CountSink
			if err := s.Run(in, streamBenchRows, &sink); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Run(in, streamBenchRows, &sink); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(streamBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows_per_sec")
		})
	}
}
