package robust

import (
	"testing"

	"robsched/internal/rng"
)

// BenchmarkEvaluatePopulation times the evaluation of 20 undecoded
// chromosomes with no metrics cache: every one is a miss.
func BenchmarkEvaluatePopulation(b *testing.B) {
	w := testWorkload(b, 5, 100, 8)
	eval := newEvaluator(w, Options{Mode: EpsilonConstraint, Eps: 1.4, NoMetricsCache: true}, 100, nil, 1.4*100)
	r := rng.New(1)
	template := make([]*Chromosome, 20)
	for i := range template {
		template[i] = Random(w, r)
	}
	pop := make([]*Chromosome, len(template))
	fit := make([]float64, len(pop))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, c := range template {
			pop[j] = c.Clone() // undecoded copies each round
		}
		b.StartTimer()
		eval.evaluateInto(pop, fit)
	}
}
