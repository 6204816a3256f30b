package rl

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/ckpt"
	"repro/internal/nn"
)

// trainerKind tags full-state trainer checkpoints inside the ckpt envelope.
const trainerKind = "rl-trainer"

// savedScored is the serialized form of one memory-buffer entry: the
// action as the policy's JSON (a coarsening decision is an array of
// booleans).
type savedScored struct {
	A      json.RawMessage `json:"d"`
	Reward float64         `json:"reward"`
	Guided bool            `json:"guided,omitempty"`
}

// checkpointPayload is the full training state written by SaveCheckpoint.
// Restoring every field makes a resumed run bit-identical to an
// uninterrupted one: same parameters and Adam moments, same memory
// buffers and baselines, same sampling RNG stream, same position in the
// curriculum.
type checkpointPayload struct {
	Params      map[string]nn.ParamState `json:"params"`
	Opt         nn.AdamState             `json:"opt"`
	RNG         []byte                   `json:"rng"`
	Buffer      map[int][]savedScored    `json:"buffer"`
	History     []float64                `json:"history"`
	Pos         Progress                 `json:"pos"`
	Steps       int                      `json:"steps"`
	SampleSeq   uint64                   `json:"sample_seq"`
	Divergences int                      `json:"divergences"`
}

// SaveCheckpoint writes the full training state — model parameters, Adam
// moments and step count, memory buffers, sampling RNG state, reward
// history, and curriculum position — to path as an atomically written,
// checksummed envelope (see internal/ckpt). A process killed mid-write
// leaves the previous checkpoint intact.
func (t *Trainer) SaveCheckpoint(path string) error {
	rngState, err := t.pcg.MarshalBinary()
	if err != nil {
		return fmt.Errorf("rl: marshal rng: %w", err)
	}
	buf := make(map[int][]savedScored, len(t.buffer))
	for gi, entries := range t.buffer {
		out := make([]savedScored, len(entries))
		for i, e := range entries {
			a, err := json.Marshal(e.a)
			if err != nil {
				return fmt.Errorf("rl: marshal action: %w", err)
			}
			out[i] = savedScored{A: a, Reward: e.reward, Guided: e.guided}
		}
		buf[gi] = out
	}
	payload := checkpointPayload{
		Params:      t.ps.StateMap(),
		Opt:         t.Opt.State(),
		RNG:         rngState,
		Buffer:      buf,
		History:     append([]float64(nil), t.History...),
		Pos:         t.Pos,
		Steps:       t.steps,
		SampleSeq:   t.sampleSeq,
		Divergences: t.Divergences,
	}
	if err := ckpt.WriteFile(path, trainerKind, payload); err != nil {
		return fmt.Errorf("rl: save checkpoint: %w", err)
	}
	return nil
}

// SaveWeights writes only the model parameters via nn.SaveParams — the
// lightweight artifact for deployment-time inference, without optimizer
// or trainer state. nn.LoadParams reads it back; LoadCheckpoint refuses
// it.
func (t *Trainer) SaveWeights(path string) error {
	return nn.SaveParams(t.ps, path)
}

// LoadCheckpoint restores the full training state from a checksum-verified
// "rl-trainer" envelope written by SaveCheckpoint, so training resumes
// exactly where it stopped. Any other file, a weights file written by
// SaveWeights included, is refused with an error naming its kind.
func (t *Trainer) LoadCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("rl: load checkpoint: %w", err)
	}
	var payload checkpointPayload
	if err := ckpt.Decode(data, trainerKind, &payload); err != nil {
		return fmt.Errorf("rl: %s: %w", path, err)
	}
	if err := t.ps.RestoreStateMap(payload.Params); err != nil {
		return fmt.Errorf("rl: %s: %w", path, err)
	}
	t.Opt.SetState(payload.Opt)
	if err := t.pcg.UnmarshalBinary(payload.RNG); err != nil {
		return fmt.Errorf("rl: %s: restore rng: %w", path, err)
	}
	t.buffer = make(map[int][]scored, len(payload.Buffer))
	for gi, entries := range payload.Buffer {
		in := make([]scored, len(entries))
		for i, e := range entries {
			a, err := t.decode(e.A)
			if err != nil {
				return fmt.Errorf("rl: %s: buffer action: %w", path, err)
			}
			in[i] = scored{a: a, reward: e.Reward, guided: e.Guided}
		}
		t.buffer[gi] = in
	}
	t.History = payload.History
	t.Pos = payload.Pos
	t.steps = payload.Steps
	t.sampleSeq = payload.SampleSeq
	t.Divergences = payload.Divergences
	// The restored state is by definition good: give the divergence guard
	// its rollback target.
	t.snapshotGood()
	return nil
}
