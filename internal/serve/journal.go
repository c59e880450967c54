package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// journalRecord is one JSONL line in the crash-safe job journal: an "accept"
// when a job is admitted, an "end" when it reaches done or failed. A job
// that was accepted but never ended — the process crashed, or a drain parked
// it — is replayed on the next start.
type journalRecord struct {
	Op     string   `json:"op"` // accept | end
	ID     string   `json:"id"`
	Status string   `json:"status,omitempty"` // end only: done | failed
	Spec   *JobSpec `json:"spec,omitempty"`   // accept only
}

// Journal is an append-only JSONL job log. Appends are fsynced so an
// accepted job survives a crash of the process (the 202 response is a
// durable promise). A nil *Journal is a no-op, so the journal is optional.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// Replay is one accepted-but-unfinished job found in the journal: its
// journal ID, under which its end record must be written, and its spec.
type Replay struct {
	ID   string
	Spec JobSpec
}

// OpenJournal opens (creating if needed) the journal at path and returns it
// together with the accepted-but-unfinished jobs found in it, in acceptance
// order — the replay set. A torn final line, left by a crash mid-append, is
// cut off, so the next append starts a line of its own. Its job was never
// acknowledged: Accept syncs the whole line, newline included, before the
// 202 goes out.
func OpenJournal(path string) (*Journal, []Replay, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	type pendingJob struct {
		Replay
		seq int
	}
	pending := map[string]pendingJob{}
	order := 0
	r := bufio.NewReaderSize(f, 1<<20)
	var end int64 // offset just past the last complete line
	for {
		raw, err := r.ReadSlice('\n')
		if err == io.EOF {
			if len(raw) > 0 {
				if err := truncate(f, end); err != nil {
					f.Close()
					return nil, nil, fmt.Errorf("serve: cutting the journal's torn tail: %w", err)
				}
			}
			break
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("serve: reading journal: %w", err)
		}
		end += int64(len(raw))
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// A complete line that does not parse is corrupt, not torn
			// (appends are synced whole): it is skipped, and the job it
			// recorded, if any, is lost.
			continue
		}
		switch rec.Op {
		case "accept":
			if rec.Spec != nil {
				pending[rec.ID] = pendingJob{Replay{rec.ID, *rec.Spec}, order}
				order++
			}
		case "end":
			delete(pending, rec.ID)
		}
	}
	ordered := make([]pendingJob, 0, len(pending))
	for _, p := range pending {
		ordered = append(ordered, p)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
	replay := make([]Replay, len(ordered))
	for i, p := range ordered {
		replay[i] = p.Replay
	}
	return &Journal{f: f}, replay, nil
}

// truncate cuts f to size bytes, durably.
func truncate(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Accept records an admitted job durably before the 202 is sent.
func (j *Journal) Accept(id string, spec JobSpec) error {
	return j.append(journalRecord{Op: "accept", ID: id, Spec: &spec})
}

// End records a terminal outcome (done or failed). Parked jobs are
// deliberately NOT ended: the next start replays them.
func (j *Journal) End(id, status string) error {
	return j.append(journalRecord{Op: "end", ID: id, Status: status})
}

func (j *Journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
