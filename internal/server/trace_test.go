package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"presp/internal/flow"
	"presp/internal/obs"
)

// TestConcurrentFlightsTraceOnOwnLanes runs two real flows at once on
// two server workers, held at a barrier until both have started so
// their scheduler jobs overlap in wall time, then two more, so at least
// one worker slot runs several flights. Each flight must write its job
// spans into its slot's lane block, so the shared trace nests on every
// lane, and every job span must carry its flight key and job ID. Every
// lane is named once, and no two lanes share a name.
func TestConcurrentFlightsTraceOnOwnLanes(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Config{Workers: 2, JobWorkers: 2, Observer: o})
	var arrived sync.WaitGroup
	arrived.Add(2)
	var calls atomic.Int32
	real := s.runFlow
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		if calls.Add(1) <= 2 {
			arrived.Done()
			arrived.Wait()
		}
		return real(ctx, cs, opt)
	}
	var ids []string
	for _, preset := range []string{"SOC_2", "SOC_3"} {
		v, err := s.Submit("t", Spec{Preset: preset, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitState(t, s, "t", id, StateSucceeded)
	}
	for _, preset := range []string{"SOC_1", "SOC_4"} {
		v, err := s.Submit("t", Spec{Preset: preset, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, "t", v.ID, StateSucceeded)
	}

	events := o.Tracer().Events()
	if err := obs.CheckNesting(events); err != nil {
		t.Fatalf("two concurrent flights: %v", err)
	}
	flightSlot := map[string]int{}
	slots := map[int]bool{}
	for _, ev := range events {
		if ev.Phase == "X" && ev.Cat == "server" {
			flightSlot[ev.Args["key"].(string)] = ev.TID - serverTIDBase
			slots[ev.TID-serverTIDBase] = true
		}
	}
	if len(flightSlot) != 4 || len(slots) >= len(flightSlot) {
		t.Fatalf("flight slots %v, want 4 flights with one slot running several", flightSlot)
	}
	laneName := map[int]string{}
	nameLane := map[string]int{}
	for _, ev := range events {
		if ev.Phase != "M" || ev.Name != "thread_name" {
			continue
		}
		name, _ := ev.Args["name"].(string)
		if prev, ok := laneName[ev.TID]; ok {
			t.Errorf("lane %d named twice: %q, then %q", ev.TID, prev, name)
		}
		if lane, ok := nameLane[name]; ok && lane != ev.TID {
			t.Errorf("lanes %d and %d are both named %q", lane, ev.TID, name)
		}
		laneName[ev.TID], nameLane[name] = name, ev.TID
	}
	jobs := 0
	for _, ev := range events {
		if ev.Phase != "X" || ev.Cat != "job" {
			continue
		}
		jobs++
		key, _ := ev.Args["flight"].(string)
		slot, ok := flightSlot[key]
		if !ok {
			t.Fatalf("job span %s carries flight %q, not one of the traced flights", ev.Name, key)
		}
		if ev.Args["job"] != ev.Name {
			t.Fatalf("job span %s carries job %v", ev.Name, ev.Args["job"])
		}
		// JobWorkers 2: slot s owns lanes 2s and 2s+1.
		if ev.TID/2 != slot {
			t.Fatalf("job span %s of flight %s (slot %d) is on lane %d", ev.Name, key, slot, ev.TID)
		}
		if laneName[ev.TID] == "" {
			t.Errorf("lane %d holds job spans but has no name", ev.TID)
		}
	}
	if jobs == 0 {
		t.Fatal("no job spans traced")
	}
}
