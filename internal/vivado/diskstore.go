package vivado

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"presp/internal/crcframe"
	"presp/internal/obs"
)

// DiskStore is the persistent tier under CheckpointCache and StageCache:
// one file per cache key holding a JSON body plus a CRC-32 trailer (the
// crcframe framing, shared with the server's job WAL). It is the only
// place the artifact store (store.go) encodes: the memory
// tier above it holds decoded values, entries are encoded once on
// write-through and decoded once on promotion. The two entry kinds
// (checkpointEntries, artifactEntries) share one read path and one
// write path and differ only in file extension and codec. The
// store is what lets a restarted daemon — or a rerun of an interrupted
// flow — warm-start from the previous process's synthesis corpus
// instead of re-paying every modelled run.
//
// Durability discipline:
//
//   - Writes are atomic: the entry is written to a CreateTemp file in
//     the store directory and Renamed over the final name, so a crash
//     mid-write leaves either the old entry or none — never a torn one.
//   - Reads are verified: a file whose CRC-32 trailer does not match its
//     body — or that is too short to carry one, or whose body does not
//     decode — is quarantined by renaming it to <name>.bad, counted in
//     Corrupt, and reported as a miss. A quarantined entry is never
//     trusted and never loaded; the flow simply recomputes it.
//     Quarantined files are kept for post-mortem but not forever: the
//     GC ages them out after quarantineMaxAge, and while present they
//     count against the byte budget ahead of live entries.
//   - Open verifies every entry up front (quarantining the bad ones and
//     applying the byte budget), so a warm start begins from a store
//     that is known-good end to end.
//
// The store is bounded by an optional byte budget (SetMaxBytes): after
// each write, entries are garbage-collected oldest-access-first until
// the total size fits. Access order is tracked through file mtimes — a
// successful load touches its entry — which keeps the policy intact
// across restarts without a sidecar index.
//
// All methods are safe for concurrent use; the store serializes its
// file I/O internally.
type DiskStore struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	bytes    int64 // total size of live (non-quarantined) entries

	hits          int64
	misses        int64
	writes        int64
	corrupt       int64
	gcEvictions   int64
	quarEvictions int64

	// exported mirrors how much of each counter has reached the obs
	// registry, so SetObserver can push the backlog accumulated before
	// an observer attached (verify-at-open quarantines, notably) without
	// double-counting on re-attachment.
	exported struct {
		hits, misses, writes, corrupt, gcEvictions, quarEvictions int64
	}

	// Instruments resolved by SetObserver; nil without an observer, and
	// every method of a nil instrument no-ops.
	mHits    *obs.Counter
	mMisses  *obs.Counter
	mWrites  *obs.Counter
	mCorrupt *obs.Counter
	mGC      *obs.Counter
	mQuarGC  *obs.Counter
	hLoad    *obs.Histogram
	hStore   *obs.Histogram
}

// diskQuarantineExt is appended to the full name of a quarantined
// entry file ("<key>.ckpt.bad", "<key>.art.bad").
const diskQuarantineExt = ".bad"

// diskKind is one kind of live store entry. Both kinds go through the
// same verified read path (load) and atomic write path (store); they
// differ only in file extension and in how a body is encoded and
// decoded. The extensions must stay distinct: checkpoint entries are
// decoded strictly as SynthCheckpoint, artifact entries into the
// reader's payload type.
// Keys are the caches' hex digests, so "<key><ext>" is always a safe
// file name.
type diskKind[T any] struct {
	ext    string
	encode func(T) ([]byte, error)
	// decode checks a CRC-verified body (without its terminating
	// newline) in exactly one parse pass.
	decode func(body []byte) (T, error)
}

var (
	// checkpointEntries are synthesis checkpoints (CheckpointCache).
	checkpointEntries = diskKind[*SynthCheckpoint]{ext: ".ckpt", encode: encodeCheckpoint, decode: decodeCheckpoint}
	// artifactEntries are stage artifacts — floorplan solutions,
	// implementation results, bitstream images (StageCache) — stored as
	// {minutes, payload} bodies.
	artifactEntries = diskKind[stageArtifact]{ext: ".art", encode: encodeArtifact, decode: checkArtifact}
)

// quarantineMaxAge bounds how long a quarantined *.bad file is kept
// around for post-mortem inspection: the GC removes older ones on its
// next pass, so a corruption storm cannot grow the store directory
// without bound even under no byte budget.
const quarantineMaxAge = 24 * time.Hour

// diskMSBuckets buckets real file-I/O latencies (milliseconds) — unlike
// the modelled-minute histograms, these measure wall time.
var diskMSBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// OpenDiskStore opens (creating if necessary) the persistent checkpoint
// store rooted at dir and verifies every existing entry: corrupt or
// truncated files are quarantined immediately, so everything the store
// reports as present is loadable.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("vivado: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vivado: disk store: %w", err)
	}
	ds := &DiskStore{dir: dir}
	if err := ds.verifyAll(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Dir returns the store's root directory.
func (ds *DiskStore) Dir() string { return ds.dir }

// SetMaxBytes bounds the store to max bytes of live entries (0 removes
// the bound), garbage-collecting oldest-access-first immediately if the
// store is already over it.
func (ds *DiskStore) SetMaxBytes(max int64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if max < 0 {
		max = 0
	}
	ds.maxBytes = max
	ds.gcLocked()
}

// SetObserver attaches cache_disk_* counters and load/store latency
// histograms on the observer's registry (nil detaches). Counts
// accumulated before the observer attached — the verify-at-open
// quarantines in particular — are pushed onto the registry immediately,
// and the export is delta-tracked so re-attachment never double-counts.
func (ds *DiskStore) SetObserver(o *obs.Observer) {
	reg := o.Metrics()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.mHits = reg.Counter("cache_disk_hits")
	ds.mMisses = reg.Counter("cache_disk_misses")
	ds.mWrites = reg.Counter("cache_disk_writes")
	ds.mCorrupt = reg.Counter("cache_disk_corrupt")
	ds.mGC = reg.Counter("cache_disk_gc_evictions")
	ds.mQuarGC = reg.Counter("cache_disk_quarantine_evictions")
	ds.hLoad = reg.Histogram("cache_disk_load_ms", diskMSBuckets...)
	ds.hStore = reg.Histogram("cache_disk_store_ms", diskMSBuckets...)
	flush := func(total int64, exported *int64, m *obs.Counter) {
		m.Add(total - *exported)
		*exported = total
	}
	flush(ds.hits, &ds.exported.hits, ds.mHits)
	flush(ds.misses, &ds.exported.misses, ds.mMisses)
	flush(ds.writes, &ds.exported.writes, ds.mWrites)
	flush(ds.corrupt, &ds.exported.corrupt, ds.mCorrupt)
	flush(ds.gcEvictions, &ds.exported.gcEvictions, ds.mGC)
	flush(ds.quarEvictions, &ds.exported.quarEvictions, ds.mQuarGC)
}

// count bumps one counter pair: the store-local total and — once an
// observer is attached — its obs-side mirror. Before attachment only
// the total moves, leaving the difference as backlog for SetObserver to
// flush. Callers hold ds.mu.
func count(total, exported *int64, m *obs.Counter) {
	*total++
	if m != nil {
		*exported++
		m.Inc()
	}
}

// DiskStats is a point-in-time snapshot of a store's counters.
type DiskStats struct {
	// Hits and Misses count Load outcomes (a quarantined entry is a
	// miss and a Corrupt).
	Hits, Misses int64
	// Writes counts successfully persisted entries.
	Writes int64
	// Corrupt counts entries quarantined as *.bad — short files, CRC
	// mismatches and undecodable bodies.
	Corrupt int64
	// GCEvictions counts entries removed by the byte-budget GC.
	GCEvictions int64
	// QuarantineEvictions counts quarantined *.bad files the GC removed
	// — aged out past quarantineMaxAge or sacrificed to the byte budget.
	QuarantineEvictions int64
	// Entries and Bytes describe the live contents.
	Entries int
	Bytes   int64
	// Quarantined and QuarantinedBytes describe the *.bad files still
	// held for post-mortem inspection; they count against the byte
	// budget ahead of live entries.
	Quarantined      int
	QuarantinedBytes int64
}

// Stats snapshots the store's counters and occupancy.
func (ds *DiskStore) Stats() DiskStats {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	n := 0
	if names, err := ds.entryNamesLocked(); err == nil {
		n = len(names)
	}
	quar := ds.scanLocked(isQuarantined)
	var quarBytes int64
	for _, f := range quar {
		quarBytes += f.size
	}
	return DiskStats{
		Hits: ds.hits, Misses: ds.misses, Writes: ds.writes,
		Corrupt: ds.corrupt, GCEvictions: ds.gcEvictions,
		QuarantineEvictions: ds.quarEvictions,
		Entries:             n, Bytes: ds.bytes,
		Quarantined: len(quar), QuarantinedBytes: quarBytes,
	}
}

// Len returns the number of live entries on disk.
func (ds *DiskStore) Len() int { return ds.Stats().Entries }

// load fetches the entry stored under key: read, CRC trailer, body
// check. A present, verified entry is returned and its mtime refreshed
// for the GC's oldest-access-first ordering; a missing one is a miss; a
// damaged one is quarantined and reported as a miss.
func (k diskKind[T]) load(ds *DiskStore, key string) (T, bool) {
	var zero T
	if key == "" {
		return zero, false
	}
	start := time.Now()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	defer func() { ds.hLoad.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()
	path := filepath.Join(ds.dir, key+k.ext)
	data, err := os.ReadFile(path)
	if err != nil {
		count(&ds.misses, &ds.exported.misses, ds.mMisses)
		return zero, false
	}
	v, err := k.open(data)
	if err != nil {
		ds.quarantineLocked(path, int64(len(data)))
		count(&ds.misses, &ds.exported.misses, ds.mMisses)
		return zero, false
	}
	// Touch the entry: GC evicts oldest-accessed first, and mtime is the
	// access record that survives restarts.
	now := time.Now()
	os.Chtimes(path, now, now) //nolint:errcheck // best-effort recency hint
	count(&ds.hits, &ds.exported.hits, ds.mHits)
	return v, true
}

// store persists v under key with an atomic CreateTemp+Rename write,
// then applies the byte budget. Storing an already-present key is a
// cheap no-op — entries are content-addressed, so same key means same
// bytes. Failures are returned but never poison the store: the worst
// outcome of a failed write is a missing entry.
//
// The entry is encoded and sealed before ds.mu is taken: encoding a
// multi-MB bitstream takes milliseconds, and every read-through waits
// on ds.mu. Two concurrent stores of one key may both encode; the
// second finds the entry present under the lock and writes nothing.
func (k diskKind[T]) store(ds *DiskStore, key string, v T) error {
	if key == "" {
		return fmt.Errorf("vivado: disk store: empty key")
	}
	start := time.Now()
	path := filepath.Join(ds.dir, key+k.ext)
	var data []byte
	var err error
	if _, statErr := os.Stat(path); statErr != nil {
		var body []byte
		if body, err = k.encode(v); err == nil {
			data = crcframe.Seal(body)
		}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	defer func() { ds.hStore.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()
	if err != nil {
		return fmt.Errorf("vivado: disk store: %w", err)
	}
	if data == nil {
		return nil // content-addressed: the entry is already durable
	}
	if _, err := os.Stat(path); err == nil {
		return nil // a concurrent store wrote it first
	}
	return ds.writeEntryLocked(path, data)
}

// open verifies one entry file's CRC trailer and checks its body.
func (k diskKind[T]) open(data []byte) (T, error) {
	body, err := crcframe.Open(data)
	if err != nil {
		var zero T
		return zero, err
	}
	return k.decode(body)
}

// writeEntryLocked persists one sealed entry with an atomic
// CreateTemp+Rename write, then applies the byte budget. Callers hold
// ds.mu.
func (ds *DiskStore) writeEntryLocked(path string, data []byte) error {
	tmp, err := os.CreateTemp(ds.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("vivado: disk store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("vivado: disk store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("vivado: disk store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("vivado: disk store: %w", err)
	}
	ds.bytes += int64(len(data))
	count(&ds.writes, &ds.exported.writes, ds.mWrites)
	ds.gcLocked()
	return nil
}

func encodeCheckpoint(ck *SynthCheckpoint) ([]byte, error) {
	if ck == nil {
		return nil, fmt.Errorf("nil checkpoint")
	}
	return json.Marshal(ck)
}

// decodeCheckpoint decodes a checkpoint body strictly: unknown fields
// and a missing module name both reject the entry.
func decodeCheckpoint(body []byte) (*SynthCheckpoint, error) {
	ck := &SynthCheckpoint{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(ck); err != nil {
		return nil, fmt.Errorf("decoding body: %w", err)
	}
	if ck.Name == "" {
		return nil, fmt.Errorf("entry has no module name")
	}
	return ck, nil
}

// stageArtifact is one StageCache entry: a published stage value and
// its modelled minutes.
type stageArtifact struct {
	value   any
	minutes Minutes
}

// artifactBody is the on-disk form of a stage artifact. The flow layer
// owns the payload schema; the store only needs it to round-trip
// losslessly through encoding/json.
type artifactBody[T any] struct {
	Minutes Minutes `json:"minutes"`
	Payload T       `json:"payload"`
}

func encodeArtifact(a stageArtifact) ([]byte, error) {
	return json.Marshal(artifactBody[any]{Minutes: a.minutes, Payload: a.value})
}

// decodeArtifact decodes a stage body straight into the reader's
// payload type, in one parse pass.
func decodeArtifact[T any](body []byte) (stageArtifact, error) {
	var b artifactBody[T]
	if err := json.Unmarshal(body, &b); err != nil {
		return stageArtifact{}, fmt.Errorf("decoding body: %w", err)
	}
	return stageArtifact{value: b.Payload, minutes: b.Minutes}, nil
}

// checkArtifact is the verify-at-open check of a stage body, whose
// payload type only a reader knows: it must be valid JSON. Reads decode
// with decodeArtifact instead.
func checkArtifact(body []byte) (stageArtifact, error) {
	if !json.Valid(body) {
		return stageArtifact{}, fmt.Errorf("artifact body is not valid JSON")
	}
	return stageArtifact{}, nil
}

// quarantineLocked moves a corrupt entry aside as <name>.bad (deleting
// it if even the rename fails) and counts it. Callers hold ds.mu.
func (ds *DiskStore) quarantineLocked(path string, size int64) {
	if err := os.Rename(path, path+diskQuarantineExt); err != nil {
		os.Remove(path) //nolint:errcheck // best-effort: gone is as good as quarantined
	}
	ds.bytes -= size
	if ds.bytes < 0 {
		ds.bytes = 0
	}
	count(&ds.corrupt, &ds.exported.corrupt, ds.mCorrupt)
}

// entryNamesLocked lists the live entry file names — checkpoints and
// stage artifacts. Callers hold ds.mu.
func (ds *DiskStore) entryNamesLocked() ([]string, error) {
	des, err := os.ReadDir(ds.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(des))
	for _, de := range des {
		if de.Type().IsRegular() && isLiveEntry(de.Name()) {
			names = append(names, de.Name())
		}
	}
	return names, nil
}

// verifyAll scans the store at open: every entry is read and checked
// against the codec of its kind, corrupt ones are quarantined, and the
// byte budget (if any) applied.
func (ds *DiskStore) verifyAll() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	names, err := ds.entryNamesLocked()
	if err != nil {
		return fmt.Errorf("vivado: disk store: %w", err)
	}
	ds.bytes = 0
	for _, name := range names {
		path := filepath.Join(ds.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue // vanished between ReadDir and read; nothing to count
		}
		var decodeErr error
		if filepath.Ext(name) == artifactEntries.ext {
			_, decodeErr = artifactEntries.open(data)
		} else {
			_, decodeErr = checkpointEntries.open(data)
		}
		if decodeErr != nil {
			ds.quarantineLocked(path, 0)
			continue
		}
		ds.bytes += int64(len(data))
	}
	ds.gcLocked()
	return nil
}

// diskFile is one on-disk file as the GC sees it.
type diskFile struct {
	path  string
	size  int64
	atime time.Time
}

// isLiveEntry / isQuarantined classify store files by name. A
// quarantined file is "<key>.ckpt.bad" or "<key>.art.bad", so its
// filepath.Ext is ".bad" and the two predicates are disjoint.
func isLiveEntry(name string) bool {
	ext := filepath.Ext(name)
	return ext == checkpointEntries.ext || ext == artifactEntries.ext
}
func isQuarantined(name string) bool { return strings.HasSuffix(name, diskQuarantineExt) }

// scanLocked lists the regular files matching keep, oldest mtime first
// with a deterministic path tie-break. Callers hold ds.mu.
func (ds *DiskStore) scanLocked(keep func(string) bool) []diskFile {
	des, err := os.ReadDir(ds.dir)
	if err != nil {
		return nil
	}
	files := make([]diskFile, 0, len(des))
	for _, de := range des {
		if !de.Type().IsRegular() || !keep(de.Name()) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, diskFile{
			path: filepath.Join(ds.dir, de.Name()), size: fi.Size(), atime: fi.ModTime(),
		})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].atime.Equal(files[j].atime) {
			return files[i].atime.Before(files[j].atime)
		}
		return files[i].path < files[j].path
	})
	return files
}

// gcLocked enforces the store's two retention rules. Quarantined *.bad
// files are post-mortem artifacts, not cache content: any older than
// quarantineMaxAge is removed regardless of the byte budget, and the
// survivors count against the budget ahead of live entries — a
// corruption storm must never crowd working checkpoints out of the
// budget, nor grow the directory forever. Then live entries are evicted
// oldest-accessed first until everything fits. Callers hold ds.mu.
func (ds *DiskStore) gcLocked() {
	quar := ds.scanLocked(isQuarantined)
	now := time.Now()
	kept := quar[:0]
	var quarBytes int64
	for _, f := range quar {
		if now.Sub(f.atime) > quarantineMaxAge {
			if os.Remove(f.path) == nil {
				count(&ds.quarEvictions, &ds.exported.quarEvictions, ds.mQuarGC)
			}
			continue
		}
		kept = append(kept, f)
		quarBytes += f.size
	}
	if ds.maxBytes <= 0 || ds.bytes+quarBytes <= ds.maxBytes {
		return
	}
	// Over budget: quarantined files go first (they serve no reads),
	// oldest first...
	for _, f := range kept {
		if ds.bytes+quarBytes <= ds.maxBytes {
			return
		}
		if err := os.Remove(f.path); err != nil {
			continue
		}
		quarBytes -= f.size
		count(&ds.quarEvictions, &ds.exported.quarEvictions, ds.mQuarGC)
	}
	// ...then live entries, oldest-accessed first.
	for _, f := range ds.scanLocked(isLiveEntry) {
		if ds.bytes+quarBytes <= ds.maxBytes {
			return
		}
		if err := os.Remove(f.path); err != nil {
			continue
		}
		ds.bytes -= f.size
		count(&ds.gcEvictions, &ds.exported.gcEvictions, ds.mGC)
	}
}
