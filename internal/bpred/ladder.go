package bpred

// Ladder returns the Section 5.3 sensitivity sequence of ever-improving
// direction predictors, from a small bimodal up to the 64KB ISL-TAGE-class
// design. Each call constructs fresh (untrained) predictors.
func Ladder() []DirPredictor {
	return []DirPredictor{
		NewGShare(14, 12), // 4KB gshare
		NewGShare(15, 12), // 8KB gshare
		NewDefault(),      // 24KB 3-table (Table 1 baseline)
		NewTAGE(14, 11, 10, []int{4, 8, 16, 32, 64, 128}),           // ~27KB TAGE
		NewTAGE(14, 12, 10, []int{4, 8, 16, 32, 64, 128}),           // ~50KB TAGE
		NewISLTAGE(14, 12, 12, []int{4, 8, 16, 32, 64, 128}, 6, 12), // ~64KB ISL-TAGE
	}
}

// LadderSpec names one rung of the sensitivity ladder with a constructor,
// so harnesses can instantiate fresh predictors per run.
type LadderSpec struct {
	Name string
	New  func() DirPredictor
}

// LadderSpecs returns constructors for the Section 5.3 ladder.
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
	_ Observable = (*Bimodal)(nil)
	_ Observable = (*GShare)(nil)
	_ Observable = (*Tournament)(nil)
	_ Observable = (*TAGE)(nil)
	_ Observable = (*ISLTAGE)(nil)
	_ Observable = (*Perceptron)(nil)

	_ Surveyor = (*Bimodal)(nil)
	_ Surveyor = (*GShare)(nil)
	_ Surveyor = (*Tournament)(nil)
	_ Surveyor = (*TAGE)(nil)
	_ Surveyor = (*ISLTAGE)(nil)
	_ Surveyor = (*Perceptron)(nil)
)

// byName lists every predictor configuration the CLI tools accept, an
// alias next to the name it aliases. ByName and Names both read it, so
// the -predictor help cannot miss a name ByName takes.
var byName = []struct {
	name string
	new  func() DirPredictor
}{
	{"static", func() DirPredictor { return &Static{} }},
	{"bimodal", func() DirPredictor { return NewBimodal(14) }},
	{"gshare", func() DirPredictor { return NewGShare(15, 14) }},
	{"default", func() DirPredictor { return NewDefault() }},
	{"gshare-3table", func() DirPredictor { return NewDefault() }},
	{"tournament", func() DirPredictor { return NewDefault() }},
	{"tage", func() DirPredictor { return NewTAGE(14, 11, 10, []int{4, 8, 16, 32, 64, 128}) }},
	{"isl-tage", func() DirPredictor { return NewISLTAGE(14, 12, 12, []int{4, 8, 16, 32, 64, 128}, 6, 12) }},
	{"perceptron", func() DirPredictor { return NewPerceptron(10, 32) }},
}

// ByName constructs a predictor from a configuration name; the CLI tools
// use it. Unknown names return nil.
func ByName(name string) DirPredictor {
	for _, c := range byName {
		if c.name == name {
			return c.new()
		}
	}
	return nil
}

// Names returns every name ByName accepts, in a fixed order.
func Names() []string {
	names := make([]string, len(byName))
	for i, c := range byName {
		names[i] = c.name
	}
	return names
}
