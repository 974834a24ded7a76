package tlb

import (
	"testing"

	"hawkeye/internal/sim"
)

func BenchmarkTLBAccessHit(b *testing.B) {
	t := New(HaswellEP())
	for p := int64(0); p < 32; p++ {
		t.Access(1, p, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(1, int64(i%32), false)
	}
}

func BenchmarkTLBAccessMissStream(b *testing.B) {
	t := New(HaswellEP())
	r := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(1, r.Int63n(1<<24), false)
	}
}

func BenchmarkInvalidateRegion(b *testing.B) {
	t := New(HaswellEP())
	r := sim.NewRand(1)
	for i := 0; i < 2048; i++ {
		t.Access(1, r.Int63n(1<<20), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.InvalidateRegion(1, int64(i%2048))
	}
}
