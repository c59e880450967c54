package arch

import (
	"fmt"

	"occamy/internal/digest"
)

// This file gives SystemState a content digest: the state codec's Sum
// (internal/digest) over the entire snapshot. Checkpoint stamps the digest
// at capture time and RestoreCheckpoint recomputes and compares it (through
// Verify) before touching any component, so a snapshot that was corrupted
// while cached or parked (Elzar's silent-state-corruption frame: a bit flip
// must never become a wrong answer) is rejected with a typed error and the
// target system is left exactly as it was — free to fall back to a cold run.
// The digest is complete by construction: a field added to any component's
// state struct is hashed with no code to write.

// CorruptCheckpointError is the typed error RestoreCheckpoint returns when a
// snapshot's recomputed content digest does not match the digest stamped at
// Checkpoint time. The restore is refused in full: no component state was
// modified. Callers holding a cache treat this as "evict and run cold" —
// degraded, never wrong.
type CorruptCheckpointError struct {
	// Cycle is the cycle the snapshot claims to have been taken at.
	Cycle uint64
	// Want is the digest stamped at Checkpoint time; Got is the digest of
	// the snapshot as presented for restore.
	Want, Got uint64
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("arch: checkpoint integrity failure: snapshot at cycle %d digests to %016x, stamped %016x (refusing to restore)",
		e.Cycle, e.Got, e.Want)
}

// computeDigest hashes the snapshot's content: every field but the stamp.
func (st *SystemState) computeDigest() uint64 { return digest.Sum(&st.stateContent) }

// Digest returns the content digest stamped when the snapshot was captured.
// It is content-addressed: two snapshots of identical machine state digest
// identically, regardless of which (identically built) System captured them.
func (st *SystemState) Digest() uint64 { return st.digest }

// Verify recomputes the snapshot's content digest and compares it with the
// stamp, returning a *CorruptCheckpointError on mismatch. RestoreCheckpoint
// calls this before touching any component; callers that hold snapshots in a
// cache can also verify eagerly (e.g. on insert) without a target system.
func (st *SystemState) Verify() error {
	if got := st.computeDigest(); got != st.digest {
		return &CorruptCheckpointError{Cycle: st.engine.Cycle(), Want: st.digest, Got: got}
	}
	return nil
}

// Tamper flips one bit of the L2 tag array in the snapshot — deterministic
// simulated memory corruption of the bulk, raw-word part of a checkpoint,
// for integrity tests and the serve layer's fault-injection endpoints. A
// tampered snapshot fails Verify and is refused by RestoreCheckpoint;
// tampering twice restores it.
func (st *SystemState) Tamper() { st.hier.L2.Corrupt() }
