// Package ckpt persists checkpoint files that survive crashes: payloads
// are JSON-encoded into a versioned envelope carrying a SHA-256 checksum,
// written to a temporary file in the target directory, fsynced, and
// renamed into place. A process killed mid-write therefore leaves either
// the previous checkpoint or the new one — never a torn file — and a
// corrupted or truncated file is rejected at read time with a descriptive
// error instead of silently loading garbage.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Version identifies the envelope layout.
const Version = 1

// envelope is the on-disk frame around a payload.
type envelope struct {
	Version int             `json:"ckpt_version"`
	Kind    string          `json:"kind"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// WriteFile atomically writes payload (JSON-encoded) to path inside a
// checksummed envelope tagged with kind. The temporary file lives in
// path's directory so the final rename is atomic on POSIX filesystems.
func WriteFile(path, kind string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("ckpt: encode %s payload: %w", kind, err)
	}
	sum := sha256.Sum256(raw)
	env := envelope{Version: Version, Kind: kind, SHA256: hex.EncodeToString(sum[:]), Payload: raw}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("ckpt: encode envelope: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("ckpt: rename into place: %w", err)
	}
	return nil
}

// Decode verifies the envelope bytes WriteFile wrote — checksum, version
// and kind — and decodes the payload into out (a pointer).
func Decode(data []byte, kind string, out any) error {
	var env envelope
	if err := strictUnmarshal(data, &env); err != nil {
		return fmt.Errorf("ckpt: corrupt or truncated envelope: %w", err)
	}
	if env.Version != Version {
		return fmt.Errorf("ckpt: unsupported envelope version %d (have %d)", env.Version, Version)
	}
	if env.Kind != kind {
		return fmt.Errorf("ckpt: file holds a %q checkpoint, want %q", env.Kind, kind)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return fmt.Errorf("ckpt: checksum mismatch (stored %.12s…, computed %.12s…): file is corrupt", env.SHA256, got)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("ckpt: decode %s payload: %w", kind, err)
	}
	return nil
}

// strictUnmarshal decodes exactly one JSON value and rejects trailing
// data, catching files truncated or concatenated by a crashed writer.
func strictUnmarshal(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
