package lint

import "testing"

func TestDetCheckFixture(t *testing.T) {
	runFixture(t, DetCheck, "saath/internal/sim/detfixture")
}

func TestDetCheckAllowlistedPackage(t *testing.T) {
	// internal/runtime is outside the determinism-critical set, so the
	// wall-clock reads and map ranges in the fixture produce nothing.
	expectNoFindings(t, DetCheck, "saath/internal/runtime/rtfixture")
}

func TestDetCheckProgressRuleReachesRuntime(t *testing.T) {
	// The coordinator writes Flow.Sent too, so the progress-stamp rule —
	// alone of detcheck's — runs there: the package is analysed, and the
	// fixture above shows the wall-clock and map rules staying out of it.
	if !DetCheck.AppliesTo("saath/internal/runtime") || DetCheck.AppliesTo("saath/internal/obs") {
		t.Error("detcheck should apply to internal/runtime (progress rule) and not to internal/obs")
	}
}

func TestHotPathFixture(t *testing.T) {
	runFixture(t, HotPath, "saath/internal/sched/hotfixture")
}

func TestObsCheckCountersFixture(t *testing.T) {
	runFixture(t, ObsCheck, "saath/internal/study/obsfixture")
}

func TestObsCheckPureImportFixture(t *testing.T) {
	runFixture(t, ObsCheck, "saath/internal/sched/purefixture")
}

func TestObsCheckWriterAllowlist(t *testing.T) {
	expectNoFindings(t, ObsCheck, "saath/internal/sweep/okfixture")
}

func TestAnalyzersRegistry(t *testing.T) {
	want := []string{"detcheck", "hotpath", "obscheck"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		sel, err := ByName([]string{a.Name})
		if err != nil || len(sel) != 1 || sel[0] != a {
			t.Errorf("ByName(%q) did not return the registered analyzer (err=%v)", a.Name, err)
		}
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Error("ByName with an unknown name should error")
	}
}
