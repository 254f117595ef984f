package server

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walFixture is a representative record sequence: an admission with a
// full spec, a start, and a terminal record with a result.
func walFixture() []walRecord {
	return []walRecord{
		{Op: walAdmitted, Job: "j000001", Tenant: "acme", Key: "deadbeefdeadbeef",
			Idem: "build-42", Spec: &Spec{Preset: "SOC_1", Compress: true}, Time: "2026-08-07T12:00:00Z"},
		{Op: walStarted, Job: "j000001"},
		{Op: walDone, Job: "j000001", State: StateSucceeded,
			Result: &ResultView{Flow: "presp", TotalMin: 42, BitstreamCRCs: []string{"a.bit:00000001"}}},
	}
}

func encodeAll(t *testing.T, recs []walRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		data, err := encodeWALRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	return buf.Bytes()
}

func TestWALRoundTrip(t *testing.T) {
	recs := walFixture()
	data := encodeAll(t, recs)
	got, clean := decodeWALPrefix(data)
	if clean != len(data) {
		t.Fatalf("clean prefix = %d, want %d (whole log)", clean, len(data))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, recs)
	}
}

// TestWALTornTailEveryLength is the record-level half of the crash
// battery: for every byte prefix of a valid log, replay must recover
// exactly the records whose encodings fit completely — no panic, no
// partial record, no lost complete record.
func TestWALTornTailEveryLength(t *testing.T) {
	recs := walFixture()
	data := encodeAll(t, recs)
	// Record boundaries: the byte offsets after each complete record.
	var bounds []int
	off := 0
	for _, r := range recs {
		enc, _ := encodeWALRecord(r)
		off += len(enc)
		bounds = append(bounds, off)
	}
	for cut := 0; cut <= len(data); cut++ {
		got, clean := decodeWALPrefix(data[:cut])
		wantN := 0
		for _, b := range bounds {
			if cut >= b {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		if wantN > 0 && clean != bounds[wantN-1] {
			t.Fatalf("cut %d: clean prefix = %d, want %d", cut, clean, bounds[wantN-1])
		}
		if wantN > 0 && !reflect.DeepEqual(got, recs[:wantN]) {
			t.Fatalf("cut %d: prefix records diverged", cut)
		}
	}
}

// TestWALCorruptMidRecord: a flipped bit anywhere inside a record ends
// the replay at that record — the prefix before it is still recovered,
// nothing after it is trusted.
// TestWALReplaysParentFormat: testdata/wal_parent_format.wal was
// written by a daemon whose succeeded results still carried the retired
// "journal_entries" field, followed by a second admission that never
// started. Replay is strict (unknown fields end it), so the field must
// stay decodable: every record replays, nothing is truncated, the
// finished job comes back succeeded with its recorded result, and the
// live one reruns to the same bitstream CRCs.
func TestWALReplaysParentFormat(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "wal_parent_format.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, clean := decodeWALPrefix(data)
	if len(recs) != 4 || clean != len(data) {
		t.Fatalf("replayed %d records over %d of %d bytes, want 4 over all", len(recs), clean, len(data))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, stats := bootWALServer(t, dir, nil, Config{})
	if stats != (RecoveryStats{Records: 4, Jobs: 2, Requeued: 1, Terminal: 1}) {
		t.Fatalf("recovery stats = %+v", stats)
	}
	done, err := s.Get("acme", "j000001")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateSucceeded || !done.Recovered || done.Result == nil ||
		done.Result.JobsExecuted != 37 || len(done.Result.BitstreamCRCs) != 17 {
		t.Fatalf("recovered job = %+v", done)
	}
	rerun := waitState(t, s, "acme", "j000002", StateSucceeded)
	if !reflect.DeepEqual(rerun.Result.BitstreamCRCs, done.Result.BitstreamCRCs) {
		t.Fatalf("rerun CRCs %v differ from the recorded %v", rerun.Result.BitstreamCRCs, done.Result.BitstreamCRCs)
	}
}

func TestWALCorruptMidRecord(t *testing.T) {
	recs := walFixture()
	data := encodeAll(t, recs)
	first, _ := encodeWALRecord(recs[0])
	// Corrupt a byte inside the second record's body.
	mut := append([]byte(nil), data...)
	mut[len(first)+10] ^= 0x20
	got, clean := decodeWALPrefix(mut)
	if len(got) != 1 || clean != len(first) {
		t.Fatalf("corrupt mid-record: recovered %d records (clean %d), want 1 (%d)",
			len(got), clean, len(first))
	}
}

// TestWALOpenTruncatesTornTail: appending after a torn tail must not
// glue the new record onto the torn bytes — openWAL truncates first.
func TestWALOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	recs := walFixture()
	data := encodeAll(t, recs)
	torn := data[:len(data)-7] // tear the final record's trailer
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w, replayed, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records from torn log, want 2", len(replayed))
	}
	next := walRecord{Op: walCancelled, Job: "j000002"}
	if err := w.append(next); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	again, clean := decodeWALPrefixFile(t, path)
	if len(again) != 3 {
		t.Fatalf("after torn-tail append: %d records, want 3 (2 replayed + 1 new)", len(again))
	}
	if !reflect.DeepEqual(again[2], next) {
		t.Fatalf("appended record diverged: %+v", again[2])
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(clean) != fi.Size() {
		t.Fatalf("log still has untrusted bytes: clean %d, size %d", clean, fi.Size())
	}
}

func decodeWALPrefixFile(t *testing.T, path string) ([]walRecord, int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, clean := decodeWALPrefix(data)
	return recs, clean
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{Op: walStarted, Job: "j000001"}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := w.close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// FuzzWALRecord is the codec's safety net: any byte soup must decode
// without panicking into a clean prefix that (a) never exceeds the
// input, (b) re-decodes to itself, and (c) stays appendable — a fresh
// record written after the clean prefix is always recovered.
func FuzzWALRecord(f *testing.F) {
	valid := func() []byte {
		var buf bytes.Buffer
		for _, r := range walFixture() {
			enc, _ := encodeWALRecord(r)
			buf.Write(enc)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("{}\ncrc32:00000000\n"))
	f.Add([]byte("not a wal at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean := decodeWALPrefix(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean prefix %d out of range [0,%d]", clean, len(data))
		}
		again, cleanAgain := decodeWALPrefix(data[:clean])
		if cleanAgain != clean || !reflect.DeepEqual(again, recs) {
			t.Fatalf("clean prefix is not a fixed point: %d/%d records, %d/%d bytes",
				len(again), len(recs), cleanAgain, clean)
		}
		// The prefix must stay appendable: write one more record after it
		// and recover everything.
		next := walRecord{Op: walStarted, Job: "j999999"}
		enc, err := encodeWALRecord(next)
		if err != nil {
			t.Fatal(err)
		}
		extended := append(append([]byte(nil), data[:clean]...), enc...)
		all, cleanAll := decodeWALPrefix(extended)
		if cleanAll != len(extended) || len(all) != len(recs)+1 {
			t.Fatalf("append after clean prefix lost records: %d, want %d", len(all), len(recs)+1)
		}
		if !reflect.DeepEqual(all[len(all)-1], next) {
			t.Fatalf("appended record diverged: %+v", all[len(all)-1])
		}
	})
}
