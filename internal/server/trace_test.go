package server

import (
	"context"
	"sync"
	"testing"

	"presp/internal/flow"
	"presp/internal/obs"
)

// TestConcurrentFlightsTraceOnOwnLanes runs two real flows at once on
// two server workers, held at a barrier until both have started so
// their scheduler jobs overlap in wall time. Each flight must write its
// job spans into a lane block of its own, so the shared trace nests on
// every lane, and every job span must carry its flight key and job ID.
func TestConcurrentFlightsTraceOnOwnLanes(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Config{Workers: 2, JobWorkers: 2, Observer: o})
	var arrived sync.WaitGroup
	arrived.Add(2)
	real := s.runFlow
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		arrived.Done()
		arrived.Wait()
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

	events := o.Tracer().Events()
	if err := obs.CheckNesting(events); err != nil {
		t.Fatalf("two concurrent flights: %v", err)
	}
	flights := map[string]bool{}
	for _, ev := range events {
		if ev.Phase == "X" && ev.Cat == "server" {
			flights[ev.Args["key"].(string)] = true
		}
	}
	if len(flights) != 2 {
		t.Fatalf("%d flight spans, want 2", len(flights))
	}
	laneOwner := map[int]string{}
	jobs := 0
	for _, ev := range events {
		if ev.Phase != "X" || ev.Cat != "job" {
			continue
		}
		jobs++
		key, _ := ev.Args["flight"].(string)
		if !flights[key] {
			t.Fatalf("job span %s carries flight %q, not one of the two flights", ev.Name, key)
		}
		if ev.Args["job"] != ev.Name {
			t.Fatalf("job span %s carries job %v", ev.Name, ev.Args["job"])
		}
		if owner, ok := laneOwner[ev.TID]; ok && owner != key {
			t.Fatalf("lane %d holds job spans of flights %s and %s", ev.TID, owner, key)
		}
		laneOwner[ev.TID] = key
	}
	if jobs == 0 {
		t.Fatal("no job spans traced")
	}
}
