package pipeline

// Stepper returns cfg with frozen-cycle skipping off: the machine steps
// every cycle one at a time, the reference TestSkipMatchesStepper holds
// the skip to.
func Stepper(cfg Config) Config {
	cfg.stepper = true
	return cfg
}

// RandomLoopProgram builds the differential tests' random structured
// loop and its initial memory.
var RandomLoopProgram = randomLoopProgram
