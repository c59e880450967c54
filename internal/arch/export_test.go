package arch

// ResetDigestPlans empties the digest plan cache, so a test can digest from
// a cold start.
func ResetDigestPlans() {
	plans.Lock()
	plans.m = nil
	plans.Unlock()
}
