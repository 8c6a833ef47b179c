// Package cpu reports, once at program start, which x86 vector extensions
// the CPU executes and the operating system saves the registers of. The
// batched makespan kernel (internal/schedule) needs AVX, the eight-lane
// uniform fill (internal/rng) AVX2, and the lognormal transform
// (internal/sim) AVX2 and FMA; each selects its assembly form from these
// flags at package init and falls back to its Go form otherwise.
package cpu
