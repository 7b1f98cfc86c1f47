package bpred

// LadderSpec names one rung of the sensitivity ladder with a constructor,
// so harnesses can instantiate fresh predictors per run.
type LadderSpec struct {
	Name string
	New  func() DirPredictor
}

// LadderSpecs returns constructors for the Section 5.3 sensitivity
// sequence of ever-improving direction predictors, from a small gshare up
// to the 64KB ISL-TAGE-class design.
func LadderSpecs() []LadderSpec {
	return []LadderSpec{
		{"gshare-4KB", func() DirPredictor { return NewGShare(14, 12) }},
		{"gshare-8KB", func() DirPredictor { return NewGShare(15, 12) }},
		{"gshare-3table-24KB", func() DirPredictor { return NewDefault() }},
		{"tage-27KB", func() DirPredictor { return NewTAGE(14, 11, 10, []int{4, 8, 16, 32, 64, 128}) }},
		{"tage-50KB", func() DirPredictor { return NewTAGE(14, 12, 10, []int{4, 8, 16, 32, 64, 128}) }},
		{"isl-tage-64KB", func() DirPredictor { return NewISLTAGE(14, 12, 12, []int{4, 8, 16, 32, 64, 128}, 6, 12) }},
	}
}

// Every ladder rung supports the full observatory: table-level event
// streaming (Observable) and end-of-run occupancy (Surveyor). Static is
// the deliberate exception — it has no tables to observe.
var (
	_ Observable = (*GShare)(nil)
	_ Observable = (*Tournament)(nil)
	_ Observable = (*TAGE)(nil)
	_ Observable = (*ISLTAGE)(nil)

	_ Surveyor = (*GShare)(nil)
	_ Surveyor = (*Tournament)(nil)
	_ Surveyor = (*TAGE)(nil)
	_ Surveyor = (*ISLTAGE)(nil)
)
