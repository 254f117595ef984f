package sim

import (
	"fmt"
	"sort"
)

// PowerMeter integrates power over virtual time per named consumer. A
// consumer contributes energy only between SetPower calls; static power
// is modelled as a consumer whose power never drops to zero.
type PowerMeter struct {
	eng       *Engine
	consumers map[string]*consumer
}

type consumer struct {
	powerW float64
	since  Time
	joules float64
}

// NewPowerMeter returns a meter bound to the engine's clock.
func NewPowerMeter(eng *Engine) *PowerMeter {
	return &PowerMeter{eng: eng, consumers: make(map[string]*consumer)}
}

// SetPower sets the instantaneous power draw of name, accumulating the
// energy consumed at the previous level first.
func (m *PowerMeter) SetPower(name string, watts float64) error {
	if watts < 0 {
		return fmt.Errorf("sim: negative power %g for %s", watts, name)
	}
	now := m.eng.Now()
	c, ok := m.consumers[name]
	if !ok {
		c = &consumer{since: now}
		m.consumers[name] = c
	}
	m.settle(c, now)
	c.powerW = watts
	return nil
}

func (m *PowerMeter) settle(c *consumer, now Time) {
	if now > c.since {
		dt := (now - c.since).Seconds()
		c.joules += c.powerW * dt
	}
	c.since = now
}

// Energy returns the accumulated energy of name in Joules up to now.
func (m *PowerMeter) Energy(name string) float64 {
	c, ok := m.consumers[name]
	if !ok {
		return 0
	}
	m.settle(c, m.eng.Now())
	return c.joules
}

// TotalEnergy returns the energy summed over all consumers, in Joules.
// The fold runs in sorted name order: float addition is not
// associative, and a map-order sum differs in the last bits between
// otherwise identical runs.
func (m *PowerMeter) TotalEnergy() float64 {
	var sum float64
	for _, name := range m.Consumers() {
		sum += m.Energy(name)
	}
	return sum
}

// Power returns the instantaneous power level of name in Watts — what
// the recovery tests assert returns to baseline after a failure.
func (m *PowerMeter) Power(name string) float64 {
	c, ok := m.consumers[name]
	if !ok {
		return 0
	}
	return c.powerW
}

// Consumers lists consumer names sorted.
func (m *PowerMeter) Consumers() []string {
	out := make([]string, 0, len(m.consumers))
	for n := range m.consumers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Breakdown returns per-consumer energy in Joules, keyed by name.
func (m *PowerMeter) Breakdown() map[string]float64 {
	out := make(map[string]float64, len(m.consumers))
	for n := range m.consumers {
		out[n] = m.Energy(n)
	}
	return out
}
