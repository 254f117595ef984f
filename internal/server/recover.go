package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"presp/internal/vivado"
)

// RecoveryStats summarizes one WAL replay at boot.
type RecoveryStats struct {
	// Records is how many clean WAL records were replayed (a torn final
	// record is silently dropped and does not count).
	Records int `json:"records"`
	// Jobs is how many jobs were re-created from the log.
	Jobs int `json:"jobs"`
	// Requeued is how many live jobs went back on the admission queue.
	Requeued int `json:"requeued"`
	// Terminal is how many jobs were already finished in the log; their
	// results are re-served from the replayed records.
	Terminal int `json:"terminal"`
}

// Recover opens the job WAL under Config.StateDir, replays it and
// rebuilds the server's job table: terminal jobs come back with their
// recorded outcomes (so idempotent resubmits and GETs keep working
// across the crash), and live jobs — admitted or interrupted
// mid-run — are re-enqueued. When the configured cache has no disk
// tier, Recover attaches one at <StateDir>/cache (every flow run shares
// it with the stage cache): every synthesis checkpoint reaches disk
// before its job completes, so an interrupted run's rerun reuses all
// the synthesis it finished. It must be called once, before the server takes traffic;
// with no StateDir it is a durability-off no-op. Calling it twice, or
// after jobs were already admitted, is an error.
func (s *Server) Recover() (RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovered {
		return RecoveryStats{}, fmt.Errorf("server: Recover called twice")
	}
	s.recovered = true
	if s.cfg.StateDir == "" {
		return RecoveryStats{}, nil
	}
	if len(s.jobs) > 0 {
		return RecoveryStats{}, fmt.Errorf("server: Recover after jobs were admitted")
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return RecoveryStats{}, fmt.Errorf("server: state dir: %w", err)
	}
	if s.cache.Disk() == nil {
		ds, err := vivado.OpenDiskStore(filepath.Join(s.cfg.StateDir, "cache"))
		if err != nil {
			return RecoveryStats{}, fmt.Errorf("server: state dir cache: %w", err)
		}
		ds.SetObserver(s.cfg.Observer)
		s.cache.SetDiskStore(ds)
	}
	w, recs, err := openWAL(filepath.Join(s.cfg.StateDir, "jobs.wal"))
	if err != nil {
		return RecoveryStats{}, err
	}
	s.wal = w

	// Replay the log through the live state machine. An admitted record
	// re-creates its job; records for jobs that were never admitted
	// (their admission sat in the torn tail) are dropped — without a
	// spec there is nothing to re-run, and the client never got an
	// acknowledgement. A job keeps the submission time its admitted
	// record carries (boot if the record has none it can parse); the log
	// keeps no other transition times, so every replayed start and
	// outcome happens at boot.
	boot := s.now()
	var order []*Job
	for _, r := range recs {
		if r.Op != walAdmitted {
			s.applyLocked(r, boot)
			continue
		}
		if s.jobs[r.Job] != nil || r.Spec == nil {
			continue
		}
		submitted, err := time.Parse(time.RFC3339Nano, r.Time)
		if err != nil {
			submitted = boot
		}
		j := &Job{
			ID:        r.Job,
			Tenant:    r.Tenant,
			Spec:      *r.Spec,
			Key:       r.Key,
			IdemKey:   r.Idem,
			State:     StateQueued,
			Dedup:     r.Dedup,
			Recovered: true,
			Submitted: submitted,
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "j")); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[j.ID] = j
		if j.IdemKey != "" {
			s.idem[tenantKey(j.Tenant, j.IdemKey)] = j.ID
		}
		order = append(order, j)
	}

	// Re-admit live jobs in admission order, regrouping them into
	// single-flight groups, so a post-crash queue keeps its positions,
	// round-robin fairness and dedup exactly like the pre-crash one.
	stats := RecoveryStats{Records: len(recs), Jobs: len(order)}
	reg := s.cfg.Observer.Metrics()
	for _, j := range order {
		s.mRecovered.Inc()
		if j.State.terminal() {
			stats.Terminal++
			continue
		}
		stats.Requeued++
		reg.Counter("server_recovered_requeued_total").Inc()
		if j.State == StateRunning {
			// The crash interrupted this run; the next attempt reuses
			// its finished synthesis from the disk tier.
			s.applyLocked(walRecord{Op: walRequeued, Job: j.ID}, boot)
		}
		if g, ok := s.flights[j.Key]; ok {
			j.group = g
			g.jobs = append(g.jobs, j)
			continue
		}
		cs, err := compile(j.Spec)
		if err != nil {
			// The admitted spec no longer compiles (version drift across
			// the restart); fail it cleanly rather than wedging the queue.
			s.transitionLocked(walRecord{Op: walDone, Job: j.ID, State: StateFailed,
				Error: fmt.Sprintf("recovery: %v", err)}, boot)
			s.mFailed.Inc()
			continue
		}
		g := s.newGroupLocked(cs, j)
		// Queue time counts from the re-admission, not across the
		// downtime.
		g.enqueued = boot
		s.enqueueLocked(g)
		s.cond.Signal()
	}

	if tr := s.cfg.Observer.Tracer(); tr != nil && stats.Jobs > 0 {
		tr.Instant("server", "recovered", serverTIDBase, map[string]any{
			"records": stats.Records, "jobs": stats.Jobs,
			"requeued": stats.Requeued, "terminal": stats.Terminal,
		})
	}
	return stats, nil
}

// newGroupLocked builds a fresh flight group led by j and registers it.
// Callers hold s.mu.
func (s *Server) newGroupLocked(cs *compiledSpec, j *Job) *group {
	ctx, cancel := context.WithCancel(context.Background())
	g := &group{
		key:      cs.key,
		tenant:   j.Tenant,
		cs:       cs,
		jobs:     []*Job{j},
		ctx:      ctx,
		cancel:   cancel,
		enqueued: j.Submitted,
	}
	j.group = g
	s.flights[cs.key] = g
	return g
}
