package rng

import (
	"math"
	"testing"
)

// lanesForms are the two forms of Lanes8.Float64s, each tested against
// New(seed).Float64 on its own whatever form Float64s dispatches to.
var lanesForms = []struct {
	name string
	fill func(r *Lanes8, dst []float64)
}{
	{"avx2", func(r *Lanes8, dst []float64) { fill8AVX2(&r.s, dst) }},
	{"go", (*Lanes8).float64sGo},
}

// lanesSeedSets are random seeds, the extreme seeds 0, 1 and 2^64−1, and
// repeated seeds (two lanes, then all eight, on one stream).
func lanesSeedSets() [][8]uint64 {
	r := New(401)
	sets := [][8]uint64{
		{0, 1, math.MaxUint64, 2, math.MaxUint64 - 1, 1 << 63, 0x9e3779b97f4a7c15, 3},
		{5, 5, 6, 6, 7, 7, 5, 6},
		{42, 42, 42, 42, 42, 42, 42, 42},
	}
	for k := 0; k < 4; k++ {
		var s [8]uint64
		for l := range s {
			s[l] = r.Uint64()
		}
		sets = append(sets, s)
	}
	return sets
}

// TestLanes8MatchesSource: lane l of both forms draws New(seeds[l]).Float64's
// sequence bit for bit, for every length 8·k with k = 1..200, in one fill
// and split across several fills, so the state carries over between calls.
func TestLanes8MatchesSource(t *testing.T) {
	const maxRows = 200
	split := New(409)
	for _, form := range lanesForms {
		t.Run(form.name, func(t *testing.T) {
			if form.name == "avx2" && !hasAVX2 {
				t.Skip("the CPU or OS lacks AVX2, so the assembly fill never runs on this host")
			}
			for _, seeds := range lanesSeedSets() {
				want := make([]float64, 8*maxRows)
				for l, seed := range seeds {
					src := New(seed)
					for k := 0; k < maxRows; k++ {
						want[k*8+l] = src.Float64()
					}
				}
				check := func(how string, got []float64) {
					t.Helper()
					for i, v := range got {
						if math.Float64bits(v) != math.Float64bits(want[i]) {
							t.Fatalf("seeds %v, %s: draw %d of lane %d is %v, want %v",
								seeds, how, i/8, i%8, v, want[i])
						}
					}
				}
				var r Lanes8
				for rows := 1; rows <= maxRows; rows++ {
					got := make([]float64, 8*rows)
					r.Seed(&seeds)
					form.fill(&r, got)
					check("one fill", got)

					r.Seed(&seeds)
					for lo := 0; lo < rows; {
						hi := lo + 1 + split.Intn(rows-lo)
						form.fill(&r, got[8*lo:8*hi])
						lo = hi
					}
					check("split fills", got)
				}
			}
		})
	}
}

// TestLanes8Float64sChecksLength: the assembly fill writes whole rows of
// eight, so a length that is not a multiple of eight is refused.
func TestLanes8Float64sChecksLength(t *testing.T) {
	var r Lanes8
	r.Seed(&[8]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	r.Float64s(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a fill of 12 values did not panic")
		}
	}()
	r.Float64s(make([]float64, 12))
}

// TestLanes8SeedAllocatesNothing: reseeding reuses the generator in place.
func TestLanes8SeedAllocatesNothing(t *testing.T) {
	var r Lanes8
	seeds := [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]float64, 64)
	if a := testing.AllocsPerRun(100, func() {
		r.Seed(&seeds)
		r.Float64s(dst)
	}); a != 0 {
		t.Fatalf("Seed and Float64s allocated %v times per run", a)
	}
}

// BenchmarkLanes8Float64s times the eight-lane fill per draw (one draw is one
// lane's value) in 128-row chunks, the sampler's chunk: avx2 runs the
// assembly form (skipped without AVX2), go the form of every other host.
func BenchmarkLanes8Float64s(b *testing.B) {
	dst := make([]float64, 128*8)
	for _, form := range lanesForms {
		b.Run(form.name, func(b *testing.B) {
			if form.name == "avx2" && !hasAVX2 {
				b.Skip("the CPU or OS lacks AVX2")
			}
			var r Lanes8
			r.Seed(&[8]uint64{1, 2, 3, 4, 5, 6, 7, 8})
			for i := 0; i < b.N; i++ {
				form.fill(&r, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
		})
	}
}
