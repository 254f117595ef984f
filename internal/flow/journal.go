package flow

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"presp/internal/socgen"
	"presp/internal/vivado"
)

// JournalEntry is one JSON line of a flow journal. The first line of a
// journal is a header (Kind "flow") binding the journal to a design
// digest and flow name; every following line (Kind "job") records one
// successfully completed or skipped job.
type JournalEntry struct {
	// Kind is "flow" for the header line, "job" for completions.
	Kind string `json:"kind"`
	// Design and Flow identify the run (header line only).
	Design string `json:"design,omitempty"`
	Flow   string `json:"flow,omitempty"`
	// Job, Stage, Minutes and Attempts describe one completed job.
	Job      string         `json:"job,omitempty"`
	Stage    string         `json:"stage,omitempty"`
	Minutes  vivado.Minutes `json:"minutes,omitempty"`
	Attempts int            `json:"attempts,omitempty"`
	// Skipped marks a job whose stage-artifact probe hit: its cached
	// result was reused and Run never executed (Attempts is zero).
	Skipped bool `json:"skipped,omitempty"`
}

// Journal is an append-only audit log of a flow run, written as JSON
// lines so a killed process leaves at worst one truncated trailing
// line. Completions are appended from the scheduler's coordinator
// goroutine; the journal locks internally so facades can share one
// instance.
//
// The journal records what ran; it is not a recovery mechanism. An
// interrupted run recovers its finished synthesis from the checkpoint
// cache's disk tier (Options.CacheDir), which persists each checkpoint
// before the job that produced it completes.
type Journal struct {
	mu      sync.Mutex
	enc     *json.Encoder
	err     error
	entries []JournalEntry
}

// NewJournal returns a journal that appends every entry to w as one
// JSON line (nil keeps the record in memory only).
func NewJournal(w io.Writer) *Journal {
	j := &Journal{}
	if w != nil {
		j.enc = json.NewEncoder(w)
	}
	return j
}

// Begin writes the header line binding the journal to a design digest
// and flow name.
func (j *Journal) Begin(designDigest, flowName string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.append(JournalEntry{Kind: "flow", Design: designDigest, Flow: flowName})
}

// Completed records one successfully finished job.
func (j *Journal) Completed(jobID string, stage Stage, minutes vivado.Minutes, attempts int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.append(JournalEntry{
		Kind:     "job",
		Job:      jobID,
		Stage:    stage.String(),
		Minutes:  minutes,
		Attempts: attempts,
	})
}

// Skip records one job whose stage-artifact probe hit — the cached
// result was reused at its original modelled cost without re-running.
func (j *Journal) Skip(jobID string, stage Stage, minutes vivado.Minutes) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.append(JournalEntry{
		Kind:    "job",
		Job:     jobID,
		Stage:   stage.String(),
		Minutes: minutes,
		Skipped: true,
	})
}

// append records e and streams it to the writer. Callers hold j.mu.
func (j *Journal) append(e JournalEntry) {
	j.entries = append(j.entries, e)
	if j.enc != nil {
		if err := j.enc.Encode(e); err != nil && j.err == nil {
			j.err = err
		}
	}
}

// Err returns the first write error, if any — an audit log that cannot
// be written is incomplete, so the flow surfaces it.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Entries returns a copy of the journal's entries.
func (j *Journal) Entries() []JournalEntry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]JournalEntry(nil), j.entries...)
}

// DesignDigest fingerprints the parts of a design a run's cached
// results depend on: configuration name, device identity and capacity,
// the static module set and every partition's name, content and
// resource envelope.
func DesignDigest(d *socgen.Design) string {
	h := fnv.New64a()
	var buf [8]byte
	ws := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0xff}) // separator: ("ab","c") != ("a","bc")
	}
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws(d.Cfg.Name)
	ws(d.Dev.Name)
	for _, n := range d.Dev.Total {
		wu(uint64(n))
	}
	for _, m := range d.StaticModules {
		ws(m.Name)
		for _, n := range m.TotalCost() {
			wu(uint64(n))
		}
	}
	for _, rp := range d.RPs {
		ws(rp.Name)
		if rp.Content != nil {
			ws(rp.Content.Name)
		}
		for _, n := range rp.Resources {
			wu(uint64(n))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
