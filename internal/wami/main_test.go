package wami

import (
	"testing"

	"presp/internal/leakcheck"
)

// TestMain fails the package's test run if a runner's frame producer
// outlives the ProcessFrames call that started it.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
