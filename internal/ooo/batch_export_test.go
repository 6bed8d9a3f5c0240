package ooo

import (
	"math/rand"

	"loadsched/internal/trace"
)

// Re-exports for the external batch differential test (package ooo_test).
// The batch runner lives in internal/runner, which imports ooo, so a test
// driving both Engine and Pool.Run cannot be an in-package ooo test; these
// shims hand it the same randomized machine and workload generators the
// in-package differential tests use.

// DiffProfilesForBatch exposes diffProfiles.
func DiffProfilesForBatch(rng *rand.Rand, n int) []trace.Profile { return diffProfiles(rng, n) }

// DiffConfigForBatch exposes diffConfig.
func DiffConfigForBatch(rng *rand.Rand) func() Config { return diffConfig(rng) }

// CoincidentProfileForBatch exposes the ready-list edge-case workload.
func CoincidentProfileForBatch() trace.Profile { return coincidentProfile }
