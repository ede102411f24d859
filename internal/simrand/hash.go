package simrand

// HashUniform returns a deterministic pseudo-uniform value in [0, 1)
// derived from the seed and the given integer parts. It is the mechanism
// behind the simulated models' *monotone* training behaviour: an error
// event is realised iff HashUniform(seed, event...) < rate, so lowering
// the rate can only remove errors, never introduce new ones. This mirrors
// how fixing a systematic failure mode in a real model removes a coherent
// set of errors rather than reshuffling them.
func HashUniform(seed int64, parts ...int64) float64 {
	h := splitmix64(uint64(seed))
	for _, p := range parts {
		h = splitmix64(h ^ splitmix64(uint64(p)))
	}
	// Use the top 53 bits for a float64 in [0, 1).
	return float64(h>>11) / float64(1<<53)
}

// HashRNG returns an RNG whose seed is derived from the given parts,
// for deterministic per-event sampling of richer distributions (e.g.
// confidence scores).
func HashRNG(seed int64, parts ...int64) *RNG {
	h := splitmix64(uint64(seed))
	for _, p := range parts {
		h = splitmix64(h ^ splitmix64(uint64(p)))
	}
	return New(int64(h))
}
