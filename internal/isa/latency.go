package isa

// FU identifies a functional-unit class. The Table 1 machine provides up to
// 2 LD/ST units, 2 INT units (which also execute branches), and 4 FP units.
type FU uint8

// Functional unit classes.
const (
	FUInt FU = iota
	FUMem
	FUFP
	NumFUClasses
)

// Unit returns the functional-unit class the opcode executes on.
func (o Op) Unit() FU {
	switch o {
	case LD, LDS, ST:
		return FUMem
	case FADD, FSUB, FMUL, FDIV, FMOV, FCMPLT, FCMPGE, CVTIF, CVTFI:
		return FUFP
	default:
		return FUInt
	}
}

// Latency returns the execution latency in cycles, excluding memory
// hierarchy time: loads add the cache access latency on top of this
// address-generation cycle. The values mirror a modest in-order core with
// a 1-cycle bypass network (Table 1).
func (o Op) Latency() int {
	switch o {
	case MUL, MULI:
		return 3
	case DIV, REM:
		return 12
	case FADD, FSUB, FMUL, FCMPLT, FCMPGE, CVTIF, CVTFI:
		return 4
	case FDIV:
		return 16
	case LD, LDS, ST:
		return 1 // address generation; memory time added by the cache model
	default:
		return 1
	}
}
