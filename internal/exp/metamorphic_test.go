package exp

import (
	"testing"

	"critics/internal/emu"
	"critics/internal/trace"
	"critics/internal/workload"
)

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// TestPassesPreserveSemantics is the metamorphic compiler check, table-driven
// across every catalog entry (all mobile apps and both SPEC suites, not a
// sample): each pass must (1) preserve value-level block semantics under the
// emu oracle and (2) preserve the baseline dynamic instruction count — for a
// fixed architectural-instruction budget, the transformed binary completes
// exactly as many event-loop iterations as the original, because the passes
// only reorder within blocks and add Overhead (non-architectural) marker
// instructions.
func TestPassesPreserveSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog sweep; skipped in -short")
	}
	if raceEnabled {
		// With it, go test -race ./internal/exp reaches go test's default
		// 10-minute timeout; CI runs this test in a plain-mode step.
		t.Skip("full catalog sweep; skipped under the race detector")
	}
	kinds := []string{VarHoist, VarCritIC, VarOPP16, VarCompress}
	var apps []workload.App
	apps = append(apps, workload.MobileApps()...)
	apps = append(apps, workload.SPECIntApps()...)
	apps = append(apps, workload.SPECFloatApps()...)

	const archBudget = 20_000
	for _, a := range apps {
		a := a
		t.Run(a.Params.Name, func(t *testing.T) {
			base := shared.Program(a)
			gb := trace.NewGenerator(base, a.Params.Seed)
			baseDyns := gb.GenerateArch(nil, archBudget)
			for _, d := range baseDyns {
				if d.Overhead {
					t.Fatal("baseline trace contains Overhead instructions")
				}
			}
			baseIters := gb.Iterations

			for _, kind := range kinds {
				xform, _ := shared.Variant(a, kind)
				if err := emu.VerifyProgramEquivalence(base, xform, 2); err != nil {
					t.Errorf("%s: semantics changed: %v", kind, err)
					continue
				}
				gx := trace.NewGenerator(xform, a.Params.Seed)
				xDyns := gx.GenerateArch(nil, archBudget)
				arch := 0
				for _, d := range xDyns {
					if !d.Overhead {
						arch++
					}
				}
				if arch != archBudget {
					t.Errorf("%s: generated %d architectural instructions, want %d", kind, arch, archBudget)
				}
				if gx.Iterations != baseIters {
					t.Errorf("%s: %d iterations for the same architectural budget, baseline did %d",
						kind, gx.Iterations, baseIters)
				}
			}
		})
	}
}
