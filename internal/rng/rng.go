package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source derives independent streams from a root seed.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream returns the deterministic stream for name. Calling Stream twice
// with the same name returns streams that produce identical sequences.
func (s *Source) Stream(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	mixed := h.Sum64() ^ s.seed*0x9E3779B97F4A7C15
	if mixed == 0 {
		mixed = 1
	}
	return &Stream{r: rand.New(rand.NewSource(int64(mixed)))}
}

// Stream is a deterministic RNG with distribution helpers used across the
// simulator. It is not safe for concurrent use; each consumer owns one.
type Stream struct {
	r *rand.Rand
}

// NewStream returns a stream seeded directly (mostly for tests).
func NewStream(seed int64) *Stream {
	if seed == 0 {
		seed = 1
	}
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n). n must be > 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Normal returns a draw from N(mean, stddev²).
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma²)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Exp returns a draw from an exponential distribution with the given
// mean (NOT rate). Exp(m) has mean m.
func (s *Stream) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed count with the given mean,
// using inversion for small means and a normal approximation for large.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction; clamped at 0.
		v := s.Normal(mean, math.Sqrt(mean)) + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10_000 {
			return k // defensive: cannot happen for mean ≤ 64
		}
	}
}

// Zipf returns a sampler over [0, n) with exponent skew (>1 means skewed;
// values near 1.0001 approximate classic Zipf). Panics if n <= 0.
func (s *Stream) Zipf(skew float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with n <= 0")
	}
	if skew <= 1 {
		skew = 1.0001
	}
	return &Zipf{z: rand.NewZipf(s.r, skew, 1, uint64(n-1))}
}

// Zipf samples Zipf-distributed ranks.
type Zipf struct {
	z *rand.Zipf
}

// Draw returns the next rank.
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.r.Float64() < p }
