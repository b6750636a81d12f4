package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/scenario"
	"repro/internal/store"
)

// Checkpoint-directory layout: the self-contained spec next to the
// atomically updated progress log. The spec file makes the directory
// freestanding — `compmem explore -checkpoint dir -resume` needs no
// other input — and the log is rewritten whole after every round
// through store.WriteFileAtomic (a temp file in the directory, fsync,
// rename, directory fsync), so a crash or power loss at any instant
// leaves either the previous round's log or the new one, never a torn
// file.
const (
	specFile       = "spec.json"
	checkpointFile = "checkpoint.json"
)

// checkpoint is the on-disk progress log.
type checkpoint struct {
	SchemaVersion int           `json:"schema_version"`
	Fingerprint   string        `json:"fingerprint"`
	Round         int           `json:"round"`
	Radius        int           `json:"radius"`
	Quiet         int           `json:"quiet"`
	Converged     bool          `json:"converged,omitempty"`
	Exhausted     bool          `json:"exhausted,omitempty"`
	Visited       []PointRecord `json:"visited"`
}

// saveSpec writes the exploration's canonical spec into the checkpoint
// directory (creating it), making the directory self-describing.
func saveSpec(dir string, ex Explore) error {
	raw, err := ex.SpecJSON()
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(dir, filepath.Join(dir, specFile), raw)
}

// LoadSpec parses the spec a checkpoint directory carries.
func LoadSpec(dir string) (Explore, error) {
	raw, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return Explore{}, fmt.Errorf("explore: reading checkpoint spec: %w", err)
	}
	return Parse(raw, nil, nil)
}

// saveCheckpoint atomically replaces the progress log.
func saveCheckpoint(dir string, cp *checkpoint) error {
	raw, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: encoding checkpoint: %w", err)
	}
	return store.WriteFileAtomic(dir, filepath.Join(dir, checkpointFile), raw)
}

// loadCheckpoint reads the progress log, verifying it belongs to the
// exploration identified by fp over a space of total points. A missing
// log is a fresh start (found false), not an error — a run killed
// before its first checkpoint resumes from nothing.
func loadCheckpoint(dir, fp string, total int) (*checkpoint, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("explore: reading checkpoint: %w", err)
	}
	cp, err := decodeCheckpoint(raw, fp, total)
	if err != nil {
		return nil, false, err
	}
	return cp, true, nil
}

// decodeCheckpoint parses a progress log and verifies it: the
// fingerprint must match fp, and the visit log must name distinct
// points of the total-point space. The search trusts the log as its
// visited set, so an out-of-range or repeated index would surface as a
// phantom or double-counted visited point.
func decodeCheckpoint(raw []byte, fp string, total int) (*checkpoint, error) {
	var cp checkpoint
	if err := scenario.DecodeStrict(raw, &cp); err != nil {
		return nil, fmt.Errorf("explore: parsing checkpoint: %w", err)
	}
	if cp.Fingerprint != fp {
		return nil, fmt.Errorf("explore: checkpoint belongs to a different exploration (fingerprint %s, spec %s); point -checkpoint at a fresh directory", cp.Fingerprint, fp)
	}
	seen := make(map[int]bool, len(cp.Visited))
	for _, rec := range cp.Visited {
		if rec.Index < 0 || rec.Index >= total {
			return nil, fmt.Errorf("explore: checkpoint visits point %d, outside the %d-point space", rec.Index, total)
		}
		if seen[rec.Index] {
			return nil, fmt.Errorf("explore: checkpoint visits point %d twice", rec.Index)
		}
		seen[rec.Index] = true
	}
	return &cp, nil
}
