package flow

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"presp/internal/socgen"
)

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Begin("digest123", "presp")
	j.Completed("synth/rt_1", StageSynth, 42, 1)
	j.Completed("floorplan", StagePlan, 0, 2)
	j.Skip("impl/group_0", StageImpl, 7)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	want := []JournalEntry{
		{Kind: "flow", Design: "digest123", Flow: "presp"},
		{Kind: "job", Job: "synth/rt_1", Stage: "synth", Minutes: 42, Attempts: 1},
		{Kind: "job", Job: "floorplan", Stage: "plan", Attempts: 2},
		{Kind: "job", Job: "impl/group_0", Stage: "impl", Minutes: 7, Skipped: true},
	}
	if got := j.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries = %+v, want %+v", got, want)
	}
	var written []JournalEntry
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e JournalEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		written = append(written, e)
	}
	if !reflect.DeepEqual(written, want) {
		t.Fatalf("written lines = %+v, want %+v", written, want)
	}
}

// TestJournalTruncatedTail: every entry reaches the writer as one
// complete line the moment it is recorded, so a process killed
// mid-write leaves an audit log whose earlier lines all parse and only
// the torn last line is lost.
func TestJournalTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Begin("d", "presp")
	j.Completed("synth/a", StageSynth, 1, 1)
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("%d lines written after two entries, want 2", n)
	}
	j.Completed("synth/b", StageSynth, 1, 1)
	// Chop the last line in half, as a kill mid-write would.
	full := buf.String()
	lines := strings.Split(full[:len(full)-len("\n")-10], "\n")
	var jobs []string
	for _, line := range lines {
		var e JournalEntry
		if json.Unmarshal([]byte(line), &e) != nil {
			continue
		}
		jobs = append(jobs, e.Job)
	}
	if want := []string{"", "synth/a"}; !reflect.DeepEqual(jobs, want) {
		t.Fatalf("readable entries after a torn tail = %q, want %q", jobs, want)
	}
}

// failingWriter errors after n successful writes.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJournalSurfacesWriteErrors(t *testing.T) {
	j := NewJournal(&failingWriter{n: 1})
	j.Begin("d", "presp")
	if err := j.Err(); err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	j.Completed("synth/a", StageSynth, 1, 1)
	if err := j.Err(); err == nil {
		t.Fatal("write error swallowed")
	}
}

func TestDesignDigestDistinguishesDesigns(t *testing.T) {
	d1 := elaborate(t, socgen.SOC1())
	d2 := elaborate(t, socgen.SOC2())
	if DesignDigest(d1) != DesignDigest(elaborate(t, socgen.SOC1())) {
		t.Fatal("digest is not deterministic for the same design")
	}
	if DesignDigest(d1) == DesignDigest(d2) {
		t.Fatal("different designs share a digest")
	}
}
