package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

func roundTripPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "state.json")
}

// readFile decodes the envelope file at path, as a checkpoint loader does.
func readFile(path, kind string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Decode(data, kind, out)
}

func TestRoundTrip(t *testing.T) {
	path := roundTripPath(t)
	in := payload{Name: "model", Values: []float64{1, 2.5, -3}}
	if err := WriteFile(path, "test-state", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := readFile(path, "test-state", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Values) != 3 || out.Values[1] != 2.5 {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestRejectsCorruptPayload(t *testing.T) {
	path := roundTripPath(t)
	if err := WriteFile(path, "test-state", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a byte inside the payload region.
	idx := strings.Index(string(data), `"x"`)
	data[idx+1] = 'y'
	os.WriteFile(path, data, 0o644)
	err := readFile(path, "test-state", &payload{})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

func TestRejectsTruncatedFile(t *testing.T) {
	path := roundTripPath(t)
	if err := WriteFile(path, "test-state", payload{Name: "x", Values: make([]float64, 100)}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	err := readFile(path, "test-state", &payload{})
	if err == nil || !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
}

func TestRejectsWrongKind(t *testing.T) {
	path := roundTripPath(t)
	if err := WriteFile(path, "trainer", payload{}); err != nil {
		t.Fatal(err)
	}
	err := readFile(path, "params", &payload{})
	if err == nil || !strings.Contains(err.Error(), `holds a "trainer"`) {
		t.Fatalf("want kind error, got %v", err)
	}
}

func TestRejectsTrailingData(t *testing.T) {
	path := roundTripPath(t)
	if err := WriteFile(path, "test-state", payload{}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	os.WriteFile(path, append(data, []byte("{}")...), 0o644)
	if err := readFile(path, "test-state", &payload{}); err == nil {
		t.Fatal("want error for trailing data")
	}
}

func TestWriteLeavesNoTempFilesBehind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for i := 0; i < 3; i++ {
		if err := WriteFile(path, "test-state", payload{Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.json" {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory should hold only the checkpoint, got %v", names)
	}
}
