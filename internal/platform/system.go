package platform

import (
	"fmt"
	"math"
)

// System is a set of m fully connected heterogeneous processors with a
// data-transfer-rate matrix. Intra-processor communication is free and
// communications do not contend (Section 3.1 assumptions).
type System struct {
	m     int
	rates Matrix // rates.At(p, q) = transfer rate between p and q, p != q
}

// NewSystem validates the rate matrix (square, m×m, finite and positive
// off-diagonal entries) and returns the system.
func NewSystem(rates Matrix) (*System, error) {
	if rates.IsZero() {
		return nil, fmt.Errorf("platform: rate matrix is unset")
	}
	if rates.Rows() != rates.Cols() {
		return nil, fmt.Errorf("platform: rate matrix is %dx%d, want square", rates.Rows(), rates.Cols())
	}
	m := rates.Rows()
	for p := 0; p < m; p++ {
		for q := 0; q < m; q++ {
			if x := rates.At(p, q); p != q && (!(x > 0) || math.IsInf(x, 1)) {
				return nil, fmt.Errorf("platform: transfer rate %g between processors %d and %d is not finite and positive", x, p, q)
			}
		}
	}
	return &System{m: m, rates: rates.Clone()}, nil
}

// UniformSystem returns a system of m processors with the same transfer rate
// on every link. The paper's experiments do not vary transfer rates, so this
// is the default platform (rate 1.0 makes communication cost equal the data
// size).
func UniformSystem(m int, rate float64) *System {
	if m <= 0 || rate <= 0 {
		panic(fmt.Sprintf("platform: UniformSystem(%d, %g)", m, rate))
	}
	rates := NewMatrix(m, m)
	rates.Fill(rate)
	s, err := NewSystem(rates)
	if err != nil {
		panic(err)
	}
	return s
}

// M returns the number of processors.
func (s *System) M() int { return s.m }

// Rate returns the transfer rate between processors p and q (p != q).
func (s *System) Rate(p, q int) float64 { return s.rates.At(p, q) }

// CommCost returns the time to move data units from processor p to q:
// zero when p == q, data/rate otherwise.
func (s *System) CommCost(p, q int, data float64) float64 {
	if p == q {
		return 0
	}
	return data / s.rates.At(p, q)
}

// MeanRate returns the mean off-diagonal transfer rate, used by list
// schedulers that rank tasks with average communication costs.
func (s *System) MeanRate() float64 {
	if s.m == 1 {
		// A single processor never communicates; any positive rate works.
		return 1
	}
	sum := 0.0
	for p := 0; p < s.m; p++ {
		for q := 0; q < s.m; q++ {
			if p != q {
				sum += s.rates.At(p, q)
			}
		}
	}
	return sum / float64(s.m*(s.m-1))
}

// MeanCommCost returns the average communication cost for data units over
// all distinct processor pairs, and zero on a single-processor system.
func (s *System) MeanCommCost(data float64) float64 {
	if s.m == 1 {
		return 0
	}
	sum := 0.0
	for p := 0; p < s.m; p++ {
		for q := 0; q < s.m; q++ {
			if p != q {
				sum += data / s.rates.At(p, q)
			}
		}
	}
	return sum / float64(s.m*(s.m-1))
}
