package arch

import "occamy/internal/digest"

// ResetDigestPlans empties the state codec's plan cache, so a test can
// digest from a cold start.
func ResetDigestPlans() { digest.ResetPlans() }

// LiveDigest is the codec's Sum over the system's settled live state, laid
// out as a snapshot: what a Checkpoint taken now would be stamped with.
func (s *System) LiveDigest() uint64 {
	live := s.withRegistries(s.state())
	return digest.Sum(&live)
}
