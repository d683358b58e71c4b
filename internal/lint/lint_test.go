package lint

import "testing"

func TestDetCheckFixture(t *testing.T) {
	runFixture(t, DetCheck, "saath/internal/sim/detfixture")
}

func TestDetCheckAllowlistedPackage(t *testing.T) {
	// internal/runtime is outside the determinism-critical set, so the
	// order-dependent map range in the fixture produces nothing.
	expectNoFindings(t, DetCheck, "saath/internal/runtime/rtfixture")
}

func TestDetCheckStaysOutOfRuntime(t *testing.T) {
	// A flow's progress is written only through its CoFlow, which moves
	// the stamps itself, so no detcheck rule is left for the coordinator:
	// neither internal/runtime nor internal/obs is analysed.
	if DetCheck.AppliesTo("saath/internal/runtime") || DetCheck.AppliesTo("saath/internal/obs") {
		t.Error("detcheck should apply to neither internal/runtime nor internal/obs")
	}
}

func TestHotPathFixture(t *testing.T) {
	runFixture(t, HotPath, "saath/internal/sched/hotfixture")
}

func TestAnalyzersRegistry(t *testing.T) {
	want := []string{"detcheck", "hotpath"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
	}
}
