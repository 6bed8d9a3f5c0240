// Package uop defines the micro-operation (uop) model used throughout the
// simulator. It mirrors the P6-style decomposition described in the paper:
// most IA-32 instructions decode into one uop, while a store decodes into a
// STA (store address) uop and a STD (store data) uop. The two halves are
// linked by the store's place in the stream: the k-th STA is store k, and
// the next store half, its STD, belongs to the same store.
package uop

import (
	"fmt"
	"math/bits"
)

// Kind identifies the execution class of a uop. The class determines which
// execution port can service it and its base latency.
type Kind uint8

const (
	// Nop occupies front-end bandwidth but no execution resources.
	Nop Kind = iota
	// IntALU is a single-cycle integer operation.
	IntALU
	// Complex is a multi-cycle integer operation (multiply, divide, shuffles).
	Complex
	// FPU is a floating-point operation.
	FPU
	// Branch is a conditional or unconditional control transfer.
	Branch
	// Load reads memory. Loads are the subject of the paper.
	Load
	// STA computes a store's address. A load may not bypass an unresolved STA
	// under the Traditional ordering scheme.
	STA
	// STD produces a store's data. A load that consumes the data of an
	// incomplete same-address STD collides and pays the collision penalty.
	STD

	numKinds
)

// NumKinds is the number of distinct uop kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	Nop:     "nop",
	IntALU:  "alu",
	Complex: "cplx",
	FPU:     "fp",
	Branch:  "br",
	Load:    "ld",
	STA:     "sta",
	STD:     "std",
}

// String returns the short mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Reg names an architectural register. Register 0 means "none": no source
// dependency or no destination. The synthetic ISA has a flat integer/FP
// register file; the renamer does not care about banks.
type Reg uint8

// NoReg is the absent-register sentinel.
const NoReg Reg = 0

// MaxArchRegs bounds the architectural register namespace of the synthetic
// traces (1..MaxArchRegs-1 usable, 0 reserved for NoReg).
const MaxArchRegs = 64

// UOp is one dynamic micro-operation in a trace. Fields that do not apply to
// a kind are zero (e.g. Addr for IntALU). The traces model IA-32, so an IP
// and a linear address are 32 bits wide, and the kind, access size and
// branch outcome share one op byte, so the struct packs to 12 bytes — uops
// are copied on every fetch, rename and recording decode, so the layout is
// hot. A recording does not store UOps: it stores each uop's static id and
// address, and its cursors decode them back into UOps from the static
// program's templates. A uop carries no sequence
// number and no store id: its place in the stream is its position, which
// every consumer already counts (the engine's rename counter, a trace
// file's record index), and a store's id is its rank among the stream's
// STAs, which the engine counts at rename.
type UOp struct {
	// IP is the static instruction pointer of the uop. All history-based
	// predictors in the paper index on the load's IP, so recurrence of IPs
	// is what makes prediction possible.
	IP uint32
	// Addr is the effective memory address for Load and STA uops.
	Addr uint32
	// Op packs the kind, the access size and the branch outcome (build it
	// with NewOp and WithBranch); read them through Kind, Size, Taken and
	// Mispredicted.
	Op Op
	// Dst is the destination register (NoReg if none).
	Dst Reg
	// Src1 and Src2 are source registers (NoReg if unused).
	Src1, Src2 Reg
}

// Op is a uop's operation byte: the Kind in bits 0–2, the access-size code
// in bits 3–5 and the branch outcome in bits 6 (taken) and 7
// (mispredicted). Kinds fill their three bits exactly, and the size code
// names one of the sizes an access can have: 0, 1, 2, 4 or 8 bytes
// (SizeCoded), code c standing for 1<<(c-1) bytes and 0 for none.
type Op uint8

const (
	opKindMask     Op = 7 // the eight kinds; TestOpRoundTrip fails on a ninth
	opSizeShift       = 3
	opSizeMask     Op = 7 << opSizeShift
	opTaken        Op = 1 << 6
	opMispredicted Op = 1 << 7
)

// NewOp returns the op of a kind-k uop that accesses size bytes, with
// neither branch flag set. It panics if k is not a kind or size has no
// code; a reader of untrusted input checks both first (NumKinds,
// SizeCoded).
func NewOp(k Kind, size uint8) Op {
	if k >= numKinds || !SizeCoded(size) {
		panic("uop: NewOp of an unknown kind or an uncoded access size")
	}
	return Op(k) | Op(bits.Len8(size))<<opSizeShift
}

// SizeCoded reports whether an access of size bytes has a code in the op
// byte: 0, 1, 2, 4 or 8.
func SizeCoded(size uint8) bool { return size <= 8 && size&(size-1) == 0 }

// WithBranch returns o with its Taken and Mispredicted flags set to taken
// and mispredicted.
func (o Op) WithBranch(taken, mispredicted bool) Op {
	o &^= opTaken | opMispredicted
	if taken {
		o |= opTaken
	}
	if mispredicted {
		o |= opMispredicted
	}
	return o
}

// Kind returns the uop's execution class.
func (u *UOp) Kind() Kind { return Kind(u.Op & opKindMask) }

// Size returns the uop's access size in bytes: 0, 1, 2, 4 or 8.
func (u *UOp) Size() uint8 {
	if c := (u.Op & opSizeMask) >> opSizeShift; c != 0 {
		return 1 << (c - 1)
	}
	return 0
}

// Taken returns the resolved direction of a Branch uop.
func (u *UOp) Taken() bool { return u.Op&opTaken != 0 }

// Mispredicted reports a Branch uop the front-end predictor got wrong; the
// generator resolves this against the modelled front-end predictor so the
// timing model can charge a refill bubble.
func (u *UOp) Mispredicted() bool { return u.Op&opMispredicted != 0 }

// Dep is the element type of the second result of every NextBatchRef
// (ooo.Source), which is always nil: the engine resolves register producers
// at rename through its own alias table, so no source publishes a
// dependence side-car any more. The type stays only while the benchmark
// module destructures that result, and goes with it.
type Dep struct{}

// HasMemAddr reports whether Addr is meaningful for this uop: a recording
// stores an address for exactly these uops, and its decoder asks this.
func (u *UOp) HasMemAddr() bool { k := u.Kind(); return k == Load || k == STA }

// String renders a compact single-line description, for debugging and logs.
func (u *UOp) String() string {
	switch k := u.Kind(); k {
	case Load:
		return fmt.Sprintf("%s r%d <- [%#x] @%#x", k, u.Dst, u.Addr, u.IP)
	case STA:
		return fmt.Sprintf("%s [%#x] @%#x", k, u.Addr, u.IP)
	case STD:
		return fmt.Sprintf("%s r%d @%#x", k, u.Src1, u.IP)
	case Branch:
		dir := "nt"
		if u.Taken() {
			dir = "t"
		}
		return fmt.Sprintf("%s %s @%#x", k, dir, u.IP)
	default:
		return fmt.Sprintf("%s r%d <- r%d,r%d @%#x", k, u.Dst, u.Src1, u.Src2, u.IP)
	}
}
