package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

func twoParamSet(seed int64) *ParamSet {
	ps := NewParamSet()
	rng := rand.New(rand.NewSource(seed))
	ps.NewXavier("a", 3, 4, rng)
	ps.NewXavier("b", 2, 2, rng)
	return ps
}

// writeParamsFile writes raw, a JSON parameter map, as SaveParams frames
// it: inside an "nn-params" envelope.
func writeParamsFile(t *testing.T, name, raw string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := ckpt.WriteFile(path, paramsKind, json.RawMessage(raw)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadParamsRejectsBareMap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.json")
	bare := `{"a":{"rows":3,"cols":4,"data":[1,1,1,1,1,1,1,1,1,1,1,1]},` +
		`"b":{"rows":2,"cols":2,"data":[5,6,7,8]}}`
	if err := os.WriteFile(path, []byte(bare), 0o644); err != nil {
		t.Fatal(err)
	}
	ps := twoParamSet(1)
	before := ps.StateMap()
	if err := LoadParams(ps, path); err == nil {
		t.Fatal("a bare parameter map must be rejected")
	}
	for name, st := range before {
		for i, v := range ps.Get(name).Value.Data {
			if v != st.Value[i] {
				t.Fatalf("rejected load modified %s[%d]", name, i)
			}
		}
	}
}

func TestLoadParamsRejectsTruncatedJSON(t *testing.T) {
	ps := twoParamSet(1)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := SaveParams(ps, path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)*2/3], 0o644)
	err := LoadParams(twoParamSet(2), path)
	if err == nil {
		t.Fatal("truncated file must be rejected")
	}
	if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error should describe the corruption: %v", err)
	}
}

func TestLoadParamsRejectsChecksumMismatch(t *testing.T) {
	ps := twoParamSet(1)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := SaveParams(ps, path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Corrupt one digit inside the payload without breaking JSON syntax.
	s := string(data)
	idx := strings.Index(s, `"value"`)
	if idx < 0 {
		idx = strings.Index(s, `"data"`)
	}
	for i := idx; i < len(s); i++ {
		if s[i] >= '1' && s[i] <= '8' {
			s = s[:i] + "9" + s[i+1:]
			break
		}
	}
	os.WriteFile(path, []byte(s), 0o644)
	err := LoadParams(twoParamSet(2), path)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

func TestLoadParamsRejectsPartialFile(t *testing.T) {
	// A file holding only parameter "a" must not silently leave "b" at its
	// previous values.
	path := writeParamsFile(t, "partial.json", `{"a":{"rows":3,"cols":4,"data":[0,0,0,0,0,0,0,0,0,0,0,0]}}`)
	err := LoadParams(twoParamSet(1), path)
	if err == nil || !strings.Contains(err.Error(), "missing parameters") {
		t.Fatalf("want missing-parameter error, got %v", err)
	}
}

func TestLoadParamsRejectsShortDataVector(t *testing.T) {
	path := writeParamsFile(t, "short.json", `{"a":{"rows":3,"cols":4,"data":[1,2,3]},`+
		`"b":{"rows":2,"cols":2,"data":[5,6,7,8]}}`)
	ps := twoParamSet(1)
	before := append([]float64(nil), ps.Get("a").Value.Data...)
	err := LoadParams(ps, path)
	if err == nil || !strings.Contains(err.Error(), "truncated data") {
		t.Fatalf("want truncated-data error, got %v", err)
	}
	for i, v := range ps.Get("a").Value.Data {
		if v != before[i] {
			t.Fatal("failed load must not modify the model")
		}
	}
}

func TestStateMapRoundTripIncludesMoments(t *testing.T) {
	ps := twoParamSet(3)
	opt := NewAdam(0.01)
	// Take a few optimizer steps so moments are non-zero.
	for s := 0; s < 3; s++ {
		for _, p := range ps.All() {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = float64(i%3) - 1
			}
		}
		opt.Step(ps)
	}
	st := ps.StateMap()
	ps2 := twoParamSet(4)
	if err := ps2.RestoreStateMap(st); err != nil {
		t.Fatal(err)
	}
	a1, a2 := ps.Get("a"), ps2.Get("a")
	for i := range a1.Value.Data {
		if a1.Value.Data[i] != a2.Value.Data[i] || a1.m.Data[i] != a2.m.Data[i] || a1.v.Data[i] != a2.v.Data[i] {
			t.Fatalf("state mismatch at a[%d]", i)
		}
	}
	// Deep copy: mutating the snapshot must not touch ps.
	st["a"].Value[0] = 999
	if a1.Value.Data[0] == 999 {
		t.Error("StateMap must deep-copy")
	}
}

func TestAdamStateRoundTrip(t *testing.T) {
	a := NewAdam(0.005)
	ps := twoParamSet(1)
	a.Step(ps)
	a.Step(ps)
	st := a.State()
	b := NewAdam(0.1)
	b.SetState(st)
	if b.LR != 0.005 || b.StepCount() != 2 || b.Beta2 != a.Beta2 {
		t.Errorf("restored state mismatch: %+v", b.State())
	}
}

func TestCheckFiniteGrads(t *testing.T) {
	ps := twoParamSet(1)
	if err := ps.CheckFiniteGrads(); err != nil {
		t.Fatal(err)
	}
	ps.Get("b").Grad.Data[2] = math.NaN()
	err := ps.CheckFiniteGrads()
	if err == nil || !strings.Contains(err.Error(), "b[2]") {
		t.Fatalf("want NaN error naming b[2], got %v", err)
	}
	ps.Get("b").Grad.Data[2] = math.Inf(1)
	if ps.CheckFiniteGrads() == nil {
		t.Error("Inf gradient must be caught")
	}
	ps.Get("b").Grad.Data[2] = 0
	ps.Get("a").Value.Data[0] = math.NaN()
	if ps.CheckFiniteValues() == nil {
		t.Error("NaN value must be caught")
	}
}
