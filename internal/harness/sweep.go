package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"vanguard/internal/engine"
)

// SweepArtifactName is the recording persisted next to the run cache, so
// the flight recording of the sweep that populated a cache directory
// lives beside the entries it explains.
const SweepArtifactName = "sweep_trace.json"

// WriteSweepArtifacts renders rec's flight recording and writes every
// requested artifact: the versioned JSON recording to tracePath, the
// Chrome trace_event timeline to chromePath (either may be empty), and —
// when one of the two is requested and cache is non-nil — a copy of the
// JSON recording next to the run cache. With neither path it writes
// nothing, so CLIs call it unconditionally.
func WriteSweepArtifacts(rec *engine.SweepRecorder, tracePath, chromePath string, cache *engine.Cache) error {
	if tracePath == "" && chromePath == "" {
		return nil
	}
	s := rec.Report()
	if tracePath != "" {
		if err := s.WriteFile(tracePath); err != nil {
			return fmt.Errorf("sweep trace: %w", err)
		}
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return fmt.Errorf("sweep chrome trace: %w", err)
		}
		if err := s.WriteChrome(f); err != nil { // WriteChrome closes f
			return fmt.Errorf("sweep chrome trace: %w", err)
		}
	}
	if cache != nil {
		if err := s.WriteFile(filepath.Join(cache.Dir(), SweepArtifactName)); err != nil {
			return fmt.Errorf("sweep trace (cache dir): %w", err)
		}
	}
	return nil
}
