package trace

// This file holds the serializable half of the pipeline waterfall viewer:
// the optional `pipeview` section of the telemetry report. The recorder
// that assembles these records from the event stream lives in
// internal/pipeview; the types live here so pipeline.Stats and the report
// schema can carry them without importing the recorder (which itself
// imports trace).

// PipeviewRecord is one dynamic instruction's lifetime. Cycle fields are
// -1 when the stage never happened (or fell outside the capture window).
// Exactly one of Commit, Squash and Drop is set for a completed lifetime:
// Commit when the instruction architecturally retired, Squash when a
// flush killed it, Drop when the front end consumed it without issuing it
// (PREDICT instructions — steering fetch IS their execution).
type PipeviewRecord struct {
	Seq int64  `json:"seq"`
	PC  int    `json:"pc"`
	Asm string `json:"asm"`
	// Branch is the static BranchID (0 = not a tracked branch); it links
	// PREDICT/RESOLVE pairs and joins against attribution BranchRows.
	Branch   int   `json:"branch,omitempty"`
	Fetch    int64 `json:"fetch"`
	Issue    int64 `json:"issue"`
	Complete int64 `json:"complete"`
	Commit   int64 `json:"commit"`
	Squash   int64 `json:"squash"`
	Drop     int64 `json:"drop"`
	// Cause is set on mispredicting speculation points (what they resolved
	// wrong as) and on squashed instructions (what flushed them).
	Cause       string `json:"cause,omitempty"`
	Mispredict  bool   `json:"mispredict,omitempty"`
	ResolveFire bool   `json:"resolve_fire,omitempty"`
	DBBPush     bool   `json:"dbb_push,omitempty"`
	DBBPop      bool   `json:"dbb_pop,omitempty"`
	// DBBOcc is the DBB occupancy after this instruction's push/pop.
	DBBOcc int `json:"dbb_occ,omitempty"`
}

// Terminal returns the record's terminal cycle (-1 while still open):
// commit, squash, or front-end drop.
func (r *PipeviewRecord) Terminal() int64 {
	switch {
	case r.Commit >= 0:
		return r.Commit
	case r.Squash >= 0:
		return r.Squash
	default:
		return r.Drop
	}
}

// PipeviewFlush is one squash-genealogy row: a flush, the speculation
// point that provoked it, and how many instructions it killed. Baseline
// full-flush repair shows up with Cause "branch" (or "return"), vanguard
// repair with Cause "resolve" and ResolveFire set — the squash-shadow
// comparison the paper's decomposition argument rests on. Exception
// squashes carry Cause "exception" with no provoking branch.
type PipeviewFlush struct {
	Cycle int64 `json:"cycle"`
	// Seq/PC identify the provoking instruction (the mispredicting
	// speculation point; for exceptions, the oldest squashed entry).
	Seq         int64  `json:"seq"`
	PC          int    `json:"pc"`
	Branch      int    `json:"branch,omitempty"`
	Cause       string `json:"cause"`
	Killed      int64  `json:"killed"`
	ResolveFire bool   `json:"resolve_fire,omitempty"`
}

// PipeviewReport is the telemetry schema's `pipeview` section: the
// captured per-instruction lifetime records (sorted by Seq) plus the
// squash genealogy observed over the whole run. Present only when the
// run recorded lifetimes.
type PipeviewReport struct {
	// Trigger names the capture mode: "all", "range", "around-squash" or
	// "window". TriggerCycle is the cycle of the triggering squash in
	// around-squash mode (-1 if it never fired).
	Trigger      string `json:"trigger"`
	TriggerCycle int64  `json:"trigger_cycle,omitempty"`
	// From/To bound the captured records' lifetimes (observed, not
	// configured: min fetch and max stage cycle over the records).
	From    int64            `json:"from"`
	To      int64            `json:"to"`
	Records []PipeviewRecord `json:"records"`
	Flushes []PipeviewFlush  `json:"flushes,omitempty"`
	// RecordsDropped counts still-open records that were overwritten
	// before terminating (ring too small for the capture window);
	// FlushesDropped counts genealogy rows beyond the preallocated cap.
	RecordsDropped int64 `json:"records_dropped,omitempty"`
	FlushesDropped int64 `json:"flushes_dropped,omitempty"`
}

// Record returns the record with the given Seq (nil if not captured).
// Records are sorted by Seq, so this is a binary search.
func (p *PipeviewReport) Record(seq int64) *PipeviewRecord {
	lo, hi := 0, len(p.Records)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Records[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.Records) && p.Records[lo].Seq == seq {
		return &p.Records[lo]
	}
	return nil
}
