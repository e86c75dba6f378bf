package expander

import "testing"

// BenchmarkGenerateLarge measures configuration-model generation at the
// paper's largest size.
func BenchmarkGenerateLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := Generate(Params{Appranks: 128, Nodes: 64, Degree: 4, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

// BenchmarkIsoperimetric measures the exhaustive DP on a 16-apprank graph.
func BenchmarkIsoperimetric(b *testing.B) {
	g := MustGenerate(Params{Appranks: 16, Nodes: 16, Degree: 4, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.IsoperimetricNumber()
	}
}

// BenchmarkSpectralGap measures deflated power iteration at 128 appranks.
func BenchmarkSpectralGap(b *testing.B) {
	g := MustGenerate(Params{Appranks: 128, Nodes: 64, Degree: 4, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SpectralGap()
	}
}

// BenchmarkGenerateSmall measures the scored hill-climb search on the
// 16-apprank, 8-node graphs fig6c uses.
func BenchmarkGenerateSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []int{2, 3} {
			if _, err := Generate(Params{Appranks: 16, Nodes: 8, Degree: d, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
