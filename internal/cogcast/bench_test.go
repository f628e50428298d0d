package cogcast

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
)

// BenchmarkArenaReinit times a warm arena's per-trial set-up at n = 256:
// every node re-initialized (its random stream re-seeded) and the engine
// reset, with no slot run.
func BenchmarkArenaReinit(b *testing.B) {
	const n = 256
	asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 1)
	if err != nil {
		b.Fatal(err)
	}
	var a Arena
	if err := a.build(asn, 0, "m", 0, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.build(asn, 0, "m", int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}
