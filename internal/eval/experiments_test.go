package eval

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/stream"
)

// tinyHarness returns a harness small enough for unit tests.
func tinyHarness(t *testing.T) *Harness {
	t.Helper()
	h := NewHarness(0.08, QuickBudget())
	h.Quiet = true
	h.Out = io.Discard
	return h
}

func TestDatasetCaching(t *testing.T) {
	h := tinyHarness(t)
	d1 := h.Dataset(settingForTest())
	d2 := h.Dataset(settingForTest())
	if d1 != d2 {
		t.Fatal("dataset not cached")
	}
	if len(d1.Train) == 0 || len(d1.Test) == 0 {
		t.Fatal("empty dataset")
	}
}

func TestCoarsenModelCachingAndLevels(t *testing.T) {
	h := tinyHarness(t)
	m1 := h.CoarsenModel("medium5k")
	m2 := h.CoarsenModel("medium5k")
	if m1 != m2 {
		t.Fatal("model not cached")
	}
}

func TestCoarsenModelUnknownLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tinyHarness(t).CoarsenModel("nope")
}

func TestBaselineUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tinyHarness(t).Baseline("nope", settingForTest())
}

// explodingPlacer panics on every placement, so every sample scoring
// of a trainer whose pipeline holds it fails.
type explodingPlacer struct{}

func (explodingPlacer) Place(*stream.Graph, sim.Cluster) *stream.Placement {
	panic("placer exploded mid-sample")
}

func (explodingPlacer) Name() string { return "exploding" }

func TestMustTrainPanicsOnHaltedRun(t *testing.T) {
	ds := tinyHarness(t).Dataset(settingForTest())
	m := core.New(core.DefaultConfig())
	cfg := rl.DefaultConfig()
	cfg.MetisGuided, cfg.PretrainEpochs, cfg.Epochs, cfg.Quiet = false, 0, 1, true
	tr := rl.NewTrainer(cfg, m, &core.Pipeline{Model: m, Placer: explodingPlacer{}})
	var msg any
	func() {
		defer func() { msg = recover() }()
		mustTrain(tr, ds.Train, ds.Cluster)
	}()
	if !strings.Contains(fmt.Sprint(msg), "placer exploded mid-sample") {
		t.Fatalf("mustTrain panicked with %v, want the recovered panic's text", msg)
	}
}

func TestFig1ProducesBothSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	rep := h.Fig1()
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, s := range rep.Rows {
		if len(s.Values) == 0 {
			t.Fatalf("series %s empty", s.Name)
		}
		for _, v := range s.Values {
			if v < 0 || v > rep.MaxX {
				t.Fatalf("series %s value %g outside [0, %g]", s.Name, v, rep.MaxX)
			}
		}
	}
}

func TestTable2RowsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	rep := h.Table2()
	want := []string{"Metis", "Our best model (Coarsen+Metis)", "w/o edge-encoding",
		"w/o edge-collapsing features", "Coarsen+Graph-enc-dec", "Coarsen-only", "Graph-enc-dec"}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows %d, want %d", len(rep.Rows), len(want))
	}
	for i, w := range want {
		if rep.Rows[i].Name != w {
			t.Fatalf("row %d = %q, want %q", i, rep.Rows[i].Name, w)
		}
	}
}

func TestFig7ReportsDeviceUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	res := h.Fig7()
	if len(res.CDF.Rows) != 4 {
		t.Fatalf("cdf rows %d", len(res.CDF.Rows))
	}
	for name, hist := range res.UsedDevices {
		total := 0
		for _, c := range hist {
			total += c
		}
		if total != len(res.CDF.Rows[0].Values) {
			t.Fatalf("%s histogram covers %d graphs, want %d", name, total, len(res.CDF.Rows[0].Values))
		}
	}
}

func TestFig9LowerSaturationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	res := h.Fig9()
	if len(res.MetisSat) == 0 || len(res.CoarsenSat) == 0 {
		t.Fatal("empty saturation data")
	}
}

func TestTable3AllMethodsTimed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	rows := h.Table3()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MediumMS < 0 || r.LargeMS < 0 {
			t.Fatalf("%s negative time", r.Method)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	h := tinyHarness(t)
	if err := h.Run("figxx"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestArtifactsWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	h.OutDir = t.TempDir()
	h.Fig1()
	path := filepath.Join(h.OutDir, "fig1_cdf.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# series: Metis") {
		t.Fatalf("artifact content:\n%s", data)
	}
}

func settingForTest() gen.Setting {
	s := gen.Medium5K()
	s.Config.MinNodes, s.Config.MaxNodes = 40, 70 // faster tests
	return s
}

func TestSimValidateConcordance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the concurrent runtime")
	}
	h := tinyHarness(t)
	res := h.SimValidate()
	if res.Pairs == 0 {
		t.Skip("no discriminating pairs at this scale")
	}
	// Fluid and DES must agree strongly; the concurrent runtime may show
	// real-system effects (head-of-line blocking) but should agree on a
	// majority of pairs.
	if res.FluidVsDES < 0.8 {
		t.Fatalf("fluid-vs-DES concordance %.2f", res.FluidVsDES)
	}
	if res.FluidVsRuntime < 0.4 {
		t.Fatalf("fluid-vs-runtime concordance %.2f", res.FluidVsRuntime)
	}
}

func TestFig6ReportsThreeParts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	reps := h.Fig6()
	if len(reps) != 3 {
		t.Fatalf("fig6 parts = %d", len(reps))
	}
	// Part (b) must contain the three ablation rows plus Metis.
	if len(reps[1].Rows) != 4 {
		t.Fatalf("fig6b rows = %d", len(reps[1].Rows))
	}
}

func TestFig8BinsCoverAllGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	rows := h.Fig8()
	if len(rows) == 0 {
		t.Fatal("no bins")
	}
	var n int
	for _, r := range rows {
		n += r.Metis.N
		if r.RatioHi < r.RatioLo {
			t.Fatal("bin edges inverted")
		}
	}
	if n != len(h.Dataset(settingLarge()).Test) {
		t.Fatalf("bins cover %d graphs", n)
	}
}

func settingLarge() gen.Setting { return gen.Large() }

func TestTable1BlocksComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	reps := h.Table1()
	if len(reps) != 5 {
		t.Fatalf("table1 blocks = %d", len(reps))
	}
	for _, r := range reps {
		if len(r.Rows) < 3 {
			t.Fatalf("%s has %d rows", r.Title, len(r.Rows))
		}
		if r.Rows[0].Name != "Metis" {
			t.Fatalf("%s reference row is %q", r.Title, r.Rows[0].Name)
		}
	}
}

func TestFig3WritesDOTArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	h.OutDir = t.TempDir()
	mt, ct := h.Fig3()
	if mt <= 0 || ct <= 0 {
		t.Fatalf("throughputs %g %g", mt, ct)
	}
	for _, name := range []string{"fig3_metis.dot", "fig3_model.dot"} {
		data, err := os.ReadFile(filepath.Join(h.OutDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "digraph") {
			t.Fatalf("%s is not a DOT file", name)
		}
	}
}

func TestTransferAppsCoversAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	h := tinyHarness(t)
	res := h.TransferApps()
	if len(res.PerTemplate) != len(gen.AllTemplates()) {
		t.Fatalf("templates covered: %d", len(res.PerTemplate))
	}
	for tpl, per := range res.PerTemplate {
		for _, m := range []string{"metis", "metis-oracle", "coarsen+metis", "hill-climb"} {
			v := per[m]
			if v <= 0 || v > 1 {
				t.Fatalf("%s/%s = %g", tpl, m, v)
			}
		}
		// The hill-climb yardstick and the oracle can never be beaten by
		// plain Metis on average... actually they start from Metis, so
		// they are at least as good per instance.
		if per["hill-climb"] < per["metis"]-1e-9 {
			t.Fatalf("%s: hill-climb below its own Metis start", tpl)
		}
		if per["metis-oracle"] < per["metis"]-1e-9 {
			t.Fatalf("%s: oracle below fixed-k metis", tpl)
		}
	}
	if res.Instances != 3*len(gen.AllTemplates()) {
		t.Fatalf("instances = %d", res.Instances)
	}
}
