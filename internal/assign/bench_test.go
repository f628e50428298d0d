package assign

import "testing"

// BenchmarkBuilderSharedCore times one warm SharedCore build at n = 256,
// the per-trial assignment set-up of a COGCAST sweep: every node re-seeds
// one sample stream and one label stream.
func BenchmarkBuilderSharedCore(b *testing.B) {
	const n, c, k, total = 256, 16, 4, 48
	var bld Builder
	if _, err := bld.SharedCore(n, c, k, total, LocalLabels, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.SharedCore(n, c, k, total, LocalLabels, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
