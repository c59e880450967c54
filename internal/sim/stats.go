package sim

// Stats is a registry of named uint64 counters. Reads of missing counters
// return zero, mirroring the convenience of gem5's stats system.
//
// Every counter is registered while the system is built, before its first
// tick: Counter hands out the counter's cell, and hot-path code bumps the
// cell directly instead of hashing a name every cycle. The values are plain
// data (StatsState), checkpointed and restored by the state codec like any
// other component's state. They sit in fixed-size chunks, so a cell never
// moves: registering appends to the last chunk, and a restore writes the
// values into the cells already handed out. The names and the name index are
// wiring, outside the state.
//
// The registry is not safe for concurrent use; the simulator is
// single-goroutine by design.
type Stats struct {
	StatsState
	names []string
	index map[string]int
	// quiet marks the counters reports list only once they are non-zero.
	quiet []bool
}

// StatsState is the registry's checkpointed state: every counter's value, in
// registration order.
type StatsState struct {
	chunks []*[statsChunk]uint64
}

// statsChunk is the number of counters per chunk.
const statsChunk = 64

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{index: make(map[string]int)}
}

// Counter returns the cell backing counter name, registering it at zero if
// needed. The cell is stable for the life of the registry, so callers cache
// it at construction time and increment it allocation-free.
func (s *Stats) Counter(name string) *uint64 { return s.register(name, false) }

// QuietCounter is Counter for an event count most runs never see, such as
// the co-processor's repartitions: reports list it only once it is
// non-zero. The first registration of a name decides.
func (s *Stats) QuietCounter(name string) *uint64 { return s.register(name, true) }

func (s *Stats) register(name string, quiet bool) *uint64 {
	i, ok := s.index[name]
	if !ok {
		i = len(s.names)
		if i%statsChunk == 0 {
			s.chunks = append(s.chunks, new([statsChunk]uint64))
		}
		s.index[name] = i
		s.names = append(s.names, name)
		s.quiet = append(s.quiet, quiet)
	}
	return &s.chunks[i/statsChunk][i%statsChunk]
}

// Get returns the value of counter name, or zero if it is not registered.
func (s *Stats) Get(name string) uint64 {
	if i, ok := s.index[name]; ok {
		return s.chunks[i/statsChunk][i%statsChunk]
	}
	return 0
}

// Len returns the number of registered counters.
func (s *Stats) Len() int { return len(s.names) }

// Snapshot returns the value of every counter a report lists, by name: all
// of them but the quiet counters still at zero.
func (s *Stats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.names))
	for i, name := range s.names {
		if v := s.chunks[i/statsChunk][i%statsChunk]; v != 0 || !s.quiet[i] {
			out[name] = v
		}
	}
	return out
}
