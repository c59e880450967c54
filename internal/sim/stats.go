package sim

import "sort"

// Stats is a registry of named uint64 counters. Counters are created lazily
// on first Add/Set. Reads of missing counters return zero, mirroring the
// convenience of gem5's stats system.
//
// Counters are stored as stable heap cells so hot-path code can resolve a
// name once (Counter) and bump the cell directly, instead of concatenating
// the name and hashing it every cycle — profiling showed those string
// concatenations were essentially all of the simulator's steady-state
// allocations.
//
// The registry is not safe for concurrent use; the simulator is
// single-goroutine by design.
type Stats struct {
	counters map[string]*uint64
	// handed holds the names whose cells Counter has handed out. Their
	// holders keep counting into them, so Restore never drops them.
	handed map[string]bool
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{counters: make(map[string]*uint64), handed: make(map[string]bool)}
}

// Counter returns the cell backing counter name, creating it at zero if
// needed. The pointer is stable for the life of the registry — including
// across Restore, which writes values into the existing cells — so callers
// may cache it at construction time and increment it allocation-free.
func (s *Stats) Counter(name string) *uint64 {
	s.handed[name] = true
	return s.cell(name)
}

// cell returns the cell backing counter name, creating it at zero if needed.
func (s *Stats) cell(name string) *uint64 {
	p, ok := s.counters[name]
	if !ok {
		p = new(uint64)
		s.counters[name] = p
	}
	return p
}

// Add increments counter name by delta.
func (s *Stats) Add(name string, delta uint64) {
	*s.cell(name) += delta
}

// Inc increments counter name by one.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Set overwrites counter name.
func (s *Stats) Set(name string, v uint64) { *s.cell(name) = v }

// Get returns the value of counter name, or zero if it was never written.
func (s *Stats) Get(name string) uint64 {
	if p, ok := s.counters[name]; ok {
		return *p
	}
	return 0
}

// Names returns all counter names in sorted order (stable output for reports).
func (s *Stats) Names() []string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of every counter, for diffing across an interval
// and for checkpoint/restore.
func (s *Stats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.counters))
	for k, v := range s.counters {
		out[k] = *v
	}
	return out
}

// Restore resets the registry to a Snapshot. Values are written into the
// existing cells (so pointers handed out by Counter stay valid); a cell
// absent from the snapshot is zeroed if Counter handed it out and dropped
// otherwise, and names present only in the snapshot are re-created. After
// Restore the registry holds the snapshot's counters plus zero-valued cells
// for the handles Counter gave out since it was taken — exactly the set a
// cold run that registered the same handles would hold, so a snapshot taken
// right after Restore equals the restored one whenever no handle was added.
func (s *Stats) Restore(snap map[string]uint64) {
	for name, p := range s.counters {
		if v, ok := snap[name]; ok {
			*p = v
		} else if s.handed[name] {
			*p = 0
		} else {
			delete(s.counters, name)
		}
	}
	for name, v := range snap {
		if _, ok := s.counters[name]; !ok {
			*s.cell(name) = v
		}
	}
}
