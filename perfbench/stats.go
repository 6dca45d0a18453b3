package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle two for an even
// count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples that must lie beyond the reported
// tail percentile.
const tailBeyond = 10

// tail returns the highest whole percentile p in [50, 99] that leaves at
// least tailBeyond samples above it, and its nearest-rank value: the
// k-th smallest sample with k = ceil(p·n/100), so n−k samples lie beyond.
// ok is false when xs is too short for even the median to leave that many
// (fewer than 2·tailBeyond samples); the value is then the maximum.
func tail(xs []float64) (p int, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for p = 99; p >= 50; p-- {
		k := (p*n + 99) / 100
		if k >= 1 && n-k >= tailBeyond {
			return p, s[k-1], true
		}
	}
	if n == 0 {
		return 100, math.NaN(), false
	}
	return 100, s[n-1], false
}

// varintLen is the size of v as a protobuf-style varint.
func varintLen(v int) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// vectorFieldBytes is the closed-form size of one model vector of dim
// coordinates as a field of a GlobalModel or LocalUpdate message: a
// one-byte tag, a varint length and the body. A dense vector's body is the
// packed little-endian float64s; an f16 vector is a nested payload message
// of its encoding, its dimension and 2·dim bytes of codes.
func vectorFieldBytes(dim int, f16 bool) int {
	body := 8 * dim
	if f16 {
		codes := 2 * dim
		body = 2 + (1 + varintLen(dim)) + (1 + varintLen(codes) + codes)
	}
	return 1 + varintLen(body) + body
}

// maxHeaderBytes bounds the scalar fields of one model message (ids,
// round, version, sample count, flags, ε and compute time) around its
// vector field.
const maxHeaderBytes = 64

// checkRoundBytes verifies one direction of one round's traffic: every
// client's message is the closed-form vector field plus a header of
// 1..maxHeaderBytes bytes.
func checkRoundBytes(dir string, got uint64, dim int, f16 bool) error {
	vec := uint64(numClients * vectorFieldBytes(dim, f16))
	if got < vec+numClients || got > vec+numClients*maxHeaderBytes {
		return fmt.Errorf("%s %d B, closed form %d B of vectors plus %d..%d B of headers",
			dir, got, vec, numClients, numClients*maxHeaderBytes)
	}
	return nil
}
