package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

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

// replayJob is one job's state folded from its WAL records.
type replayJob struct {
	id, tenant, key, idem string
	spec                  Spec
	started               bool
	attempts              int
	state                 JobState // terminal state, or "" if still live
	errStr                string
	result                *ResultView
	order                 int
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

	stats := RecoveryStats{Records: len(recs)}
	jobs, order := foldWAL(recs)

	// Rebuild the job table in admission order so recovered IDs, queue
	// positions and round-robin fairness match the pre-crash server.
	for _, id := range order {
		rj := jobs[id]
		j := &Job{
			ID:        rj.id,
			Tenant:    rj.tenant,
			Spec:      rj.spec,
			Key:       rj.key,
			IdemKey:   rj.idem,
			Attempts:  rj.attempts,
			Recovered: true,
			Submitted: s.now(),
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(rj.id, "j")); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[j.ID] = j
		if j.IdemKey != "" {
			s.idem[tenantKey(j.Tenant, j.IdemKey)] = j.ID
		}
		stats.Jobs++
		s.mRecovered.Inc()
		if rj.state != "" {
			j.State = rj.state
			j.Err = rj.errStr
			j.Result = rj.result
			j.Finished = j.Submitted
			stats.Terminal++
			continue
		}
		j.State = StateQueued
		if rj.started {
			// The crash interrupted this run; the next attempt reuses
			// its finished synthesis from the disk tier.
			j.Attempts++
		}
	}

	// Re-admit live jobs, regrouping them into single-flight groups so
	// a post-crash queue dedups exactly like the pre-crash one did.
	reg := s.cfg.Observer.Metrics()
	for _, id := range order {
		rj := jobs[id]
		if rj.state != "" {
			continue
		}
		j := s.jobs[id]
		if g, ok := s.flights[j.Key]; ok {
			j.group = g
			g.jobs = append(g.jobs, j)
			continue
		}
		cs, err := compile(j.Spec)
		if err != nil {
			// The admitted spec no longer compiles (version drift across
			// the restart); fail it cleanly rather than wedging the queue.
			j.State = StateFailed
			j.Err = fmt.Sprintf("recovery: %v", err)
			j.Finished = j.Submitted
			s.mFailed.Inc()
			s.walAppendLocked(walRecord{Op: walDone, Job: j.ID, State: StateFailed, Error: j.Err})
			continue
		}
		s.enqueueLocked(s.newGroupLocked(cs, j))
		s.cond.Signal()
	}
	for _, id := range order {
		if rj := jobs[id]; rj.state == "" {
			stats.Requeued++
			reg.Counter("server_recovered_requeued_total").Inc()
		}
	}

	if tr := s.cfg.Observer.Tracer(); tr != nil && stats.Jobs > 0 {
		tr.Instant("server", "recovered", serverTIDBase, map[string]any{
			"records": stats.Records, "jobs": stats.Jobs,
			"requeued": stats.Requeued, "terminal": stats.Terminal,
		})
	}
	return stats, nil
}

// foldWAL folds a record sequence into per-job end states, preserving
// admission order. Records for jobs that were never admitted (their
// admission sat in the torn tail) are dropped — without a spec there
// is nothing to re-run, and the client never got an acknowledgement.
func foldWAL(recs []walRecord) (map[string]*replayJob, []string) {
	jobs := make(map[string]*replayJob)
	var order []string
	for _, r := range recs {
		switch r.Op {
		case walAdmitted:
			if _, dup := jobs[r.Job]; dup || r.Spec == nil {
				continue
			}
			jobs[r.Job] = &replayJob{
				id: r.Job, tenant: r.Tenant, key: r.Key, idem: r.Idem,
				spec: *r.Spec, order: len(order),
			}
			order = append(order, r.Job)
		case walStarted:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.started = true
			}
		case walRequeued:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.started = false
				j.attempts++
			}
		case walDone:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.state = r.State
				if j.state == "" {
					j.state = StateFailed
				}
				j.errStr = r.Error
				j.result = r.Result
			}
		case walCancelled:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.state = StateCancelled
			}
		case walPoisoned:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.state = StatePoisoned
				j.errStr = r.Error
			}
		}
	}
	return jobs, order
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
		enqueued: s.now(),
	}
	j.group = g
	s.flights[cs.key] = g
	return g
}
