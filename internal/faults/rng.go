package faults

// SplitMix64 is the repo's sequential seeded generator: the splitmix64
// stream (state advances by the golden-ratio increment, outputs pass the
// mix64 finalizer also used for keyed decisions). It implements
// math/rand's Source and Source64, so call sites that consume a stream —
// topology generation, traffic plans — write
//
//	rng := rand.New(faults.NewSource(seed))
//
// instead of rand.NewSource, keeping every subsystem on one documented
// convention (see the package comment). The zero value is a valid source
// seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSource returns a splitmix64 source seeded with seed.
func NewSource(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next value of the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63 returns the top 63 bits of the next value (math/rand.Source).
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the stream (math/rand.Source).
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }
