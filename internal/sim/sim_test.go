package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	must(t, e.Schedule(30*time.Millisecond, func() { order = append(order, 3) }))
	must(t, e.Schedule(10*time.Millisecond, func() { order = append(order, 1) }))
	must(t, e.Schedule(20*time.Millisecond, func() { order = append(order, 2) }))
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", e.Now())
	}
}

func TestEngineStableOrderAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		must(t, e.Schedule(time.Millisecond, func() { order = append(order, i) }))
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	must(t, e.Schedule(time.Millisecond, func() { fired++ }))
	must(t, e.Schedule(time.Hour, func() { fired++ }))
	n := e.Run(time.Second)
	if n != 1 || fired != 1 {
		t.Fatalf("Run(1s) executed %d events, fired %d", n, fired)
	}
	if e.Now() != time.Second {
		t.Fatalf("clock should advance to the horizon, at %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending: got %d want 1", e.Pending())
	}
}

func TestEngineCascade(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 5 {
			depth++
			must(t, e.Schedule(time.Millisecond, recurse))
		}
	}
	must(t, e.Schedule(0, recurse))
	e.Run(0)
	if depth != 5 {
		t.Fatalf("cascade depth: got %d want 5", depth)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v", e.Now())
	}
}

func TestScheduleRejectsNegative(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(-time.Second, func() {}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestAtRejectsPast(t *testing.T) {
	e := NewEngine()
	must(t, e.Schedule(time.Second, func() {}))
	e.Run(0)
	if err := e.At(time.Millisecond, func() {}); err == nil {
		t.Fatal("past absolute time accepted")
	}
	if err := e.At(2*time.Second, func() {}); err != nil {
		t.Fatalf("future absolute time rejected: %v", err)
	}
}

func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			if err := e.Schedule(Time(d)*time.Microsecond, func() {
				fired = append(fired, e.Now())
			}); err != nil {
				return false
			}
		}
		e.Run(0)
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockCyclesRoundtrip(t *testing.T) {
	if Clock(78, 78e6) != time.Microsecond {
		t.Fatalf("78 cycles @ 78 MHz: got %v want 1µs", Clock(78, 78e6))
	}
	if Clock(0, 78e6) != 0 || Clock(10, 0) != 0 {
		t.Fatal("degenerate Clock inputs should be zero")
	}
	if got := Cycles(time.Microsecond, 78e6); got != 78 {
		t.Fatalf("Cycles(1µs): got %d want 78", got)
	}
	if Cycles(0, 1e6) != 0 {
		t.Fatal("zero time should be zero cycles")
	}
}

func TestPowerMeterIntegration(t *testing.T) {
	e := NewEngine()
	m := NewPowerMeter(e)
	must(t, m.SetPower("x", 2.0))
	must(t, e.Schedule(time.Second, func() {
		if err := m.SetPower("x", 0); err != nil {
			t.Error(err)
		}
	}))
	must(t, e.Schedule(2*time.Second, func() {}))
	e.Run(0)
	if got := m.Energy("x"); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("energy: got %g want 2.0 J", got)
	}
}

func TestPowerMeterMultipleConsumers(t *testing.T) {
	e := NewEngine()
	m := NewPowerMeter(e)
	must(t, m.SetPower("a", 1.0))
	must(t, m.SetPower("b", 3.0))
	must(t, e.Schedule(time.Second, func() {}))
	e.Run(0)
	if got := m.TotalEnergy(); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("total energy: got %g want 4.0", got)
	}
	bd := m.Breakdown()
	if math.Abs(bd["a"]-1.0) > 1e-9 || math.Abs(bd["b"]-3.0) > 1e-9 {
		t.Fatalf("breakdown wrong: %v", bd)
	}
	names := m.Consumers()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("consumers: %v", names)
	}
}

func TestPowerMeterRejectsNegativePower(t *testing.T) {
	m := NewPowerMeter(NewEngine())
	if err := m.SetPower("x", -1); err == nil {
		t.Fatal("negative power accepted")
	}
}

func TestPowerMeterEnergyConservationProperty(t *testing.T) {
	// For any sequence of power levels held for 1ms each, the energy is
	// the sum of level×dt — and never negative.
	f := func(levels []uint8) bool {
		e := NewEngine()
		m := NewPowerMeter(e)
		var want float64
		for i, l := range levels {
			l := float64(l) / 10
			if err := e.At(Time(i)*time.Millisecond, func() {
				if err := m.SetPower("x", l); err != nil {
					panic(err)
				}
			}); err != nil {
				return false
			}
			want += l * 0.001
		}
		if err := e.At(Time(len(levels))*time.Millisecond, func() {}); err != nil {
			return false
		}
		e.Run(0)
		got := m.Energy("x")
		return got >= 0 && math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
