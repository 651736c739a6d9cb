package platform

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// ErrNoCheckpoint is returned by FileStore.Load when no checkpoint has
// been saved yet. Callers starting a controller treat it as a cold start.
var ErrNoCheckpoint = errors.New("platform: no checkpoint")

// FileStore persists opaque controller checkpoints to a real file with
// the classic write-to-temp, sync, then rename protocol, so a crash
// mid-write leaves either the previous checkpoint or the new one, never
// a torn mix, and a power loss after the rename never surfaces an empty
// one — restart recovery depends on it.
type FileStore struct {
	// Path is the checkpoint file. Save writes and syncs Path+".tmp"
	// first and renames it into place.
	Path string
}

// Save durably replaces the stored checkpoint.
func (s FileStore) Save(data []byte) error {
	if s.Path == "" {
		return fmt.Errorf("platform: file store has no path")
	}
	tmp := s.Path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		return fmt.Errorf("platform: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.Path); err != nil {
		return fmt.Errorf("platform: committing checkpoint: %w", err)
	}
	return nil
}

// writeSynced writes data to path and has it on stable storage before it
// returns: the rename that follows must never publish bytes the disk does
// not hold yet. A file it opened and could not finish is removed again.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path) // best effort: the error to report is the write's
	}
	return err
}

// Load returns the last saved checkpoint, or ErrNoCheckpoint.
func (s FileStore) Load() ([]byte, error) {
	data, err := os.ReadFile(s.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("platform: reading checkpoint: %w", err)
	}
	return data, nil
}
