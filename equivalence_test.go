package saath

// The dense-index scheduling path (flow-indexed allocation vectors,
// incremental contention, cached sendable sets) is a pure refactor of
// the map-based engine: results must be bit-identical, not merely
// close. The constants below were recorded by running the map-based
// engine (commit before the dense-index rewrite) over two seeds of the
// small synthetic workload for three policies; this test replays the
// same simulations and compares AvgCCT (exact float bits), makespan,
// interval count and the sha256 of the full telemetry metrics JSON —
// the last of which pins every exported series and histogram,
// including the contention (k_c) histogram fed by the incremental
// index.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"saath/internal/telemetry"
)

func goldenSynthConfig(seed int64) SynthConfig {
	return SynthConfig{
		Seed: seed, NumPorts: 20, NumCoFlows: 30,
		MeanInterArrival: 30 * Millisecond,
		SingleFlowFrac:   0.25, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
		SmallFracNarrow: 0.8, SmallFracWide: 0.4,
		MinSmall: MB, MaxSmall: 50 * MB,
		MinLarge: 50 * MB, MaxLarge: 500 * MB,
	}
}

// runSignature condenses one simulation to the four quantities the
// goldens pin.
type runSignature struct {
	avgCCTBits uint64
	makespan   int64
	intervals  int
	metricsSHA string
}

func signatureOf(t *testing.T, tr *Trace, scheduler string, cfg SimConfig) runSignature {
	t.Helper()
	// Points and progress series too, so the goldens cover the raw export.
	suite := telemetry.NewSuite(TelemetrySpec{Enabled: true, Seed: 7, RingCap: 256, ReservoirCap: 256, ProgressCoFlows: 4})
	res, err := SimulateWith(tr, scheduler, DefaultParams(), cfg.WithProbe(suite))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(suite.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	return runSignature{
		avgCCTBits: math.Float64bits(res.AvgCCT()),
		makespan:   int64(res.Makespan),
		intervals:  res.Intervals,
		metricsSHA: fmt.Sprintf("%x", sha256.Sum256(b)),
	}
}

// mapEngineGolden holds the map-based engine's signatures on the plain
// configuration.
var mapEngineGolden = []struct {
	scheduler string
	seed      int64
	want      runSignature
}{
	{"saath", 1, runSignature{0x3fe0d51f81a5870e, 4424000, 529, "160a1704598db2b3126d1f9807d23b05faa6210a849339471d13913ad3516767"}},
	{"saath", 2, runSignature{0x3fe381bfbdf090f7, 3528000, 439, "c41266ccc118fd9147b9b8c0b3f066219e11f6e67c5361ba59c94d8aad4625fa"}},
	{"varys", 1, runSignature{0x3fda36b0070afdd2, 4368000, 522, "16bf81c8627e28f6d12e7d0a30ed61d9819fb6f2d65eea5ec83ced0264e97686"}},
	{"varys", 2, runSignature{0x3fddea272cdc48b3, 3544000, 441, "52db0ba2a742f4a9acac49052bd35fdbfdd4dbfc1379acd790f1904bb5248c34"}},
	{"aalo", 1, runSignature{0x3fe92c3cb0d20c19, 4416000, 529, "778bcebe8fb7dbfd0d03991c2339b8b212bc127e5066f58246a224c8bcc33c4f"}},
	{"aalo", 2, runSignature{0x3feea32e5bec484b, 3560000, 443, "df52ec67b0b092bb0c09da52d47a5bc9271bad6fb0e16cb600523f177d9a6d91"}},
}

func TestGoldenEquivalenceWithMapBasedEngine(t *testing.T) {
	for _, g := range mapEngineGolden {
		t.Run(fmt.Sprintf("%s/seed%d", g.scheduler, g.seed), func(t *testing.T) {
			tr := Synthesize(goldenSynthConfig(g.seed), fmt.Sprintf("golden-%d", g.seed))
			if got := signatureOf(t, tr, g.scheduler, SimConfig{}); got != g.want {
				t.Errorf("got  %+v\nwant %+v", got, g.want)
			}
		})
	}
}
