// Package uop defines the micro-operation (uop) model used throughout the
// simulator. It mirrors the P6-style decomposition described in the paper:
// most IA-32 instructions decode into one uop, while a store decodes into a
// STA (store address) uop and a STD (store data) uop. The two halves are
// linked by the store's place in the stream: the k-th STA is store k, and
// the next store half, its STD, belongs to the same store.
package uop

import "fmt"

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

// IsMem reports whether the uop accesses the memory pipeline (Load or STA).
// STD uses a store-data port internally but does not address memory.
func (k Kind) IsMem() bool { return k == Load || k == STA }

// IsStorePart reports whether the uop is one half of a store.
func (k Kind) IsStorePart() bool { return k == STA || k == STD }

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
// and a linear address are 32 bits wide, and the struct packs to 16 bytes
// — uops are copied on every fetch, trace replay and recording step, so
// the layout is hot. A uop carries no sequence number and no store id: its
// place in the stream is its position, which every consumer already counts
// (the engine's rename counter, a trace file's record index), and a store's
// id is its rank among the stream's STAs, which the engine counts at rename.
type UOp struct {
	// IP is the static instruction pointer of the uop. All history-based
	// predictors in the paper index on the load's IP, so recurrence of IPs
	// is what makes prediction possible.
	IP uint32
	// Addr is the effective memory address for Load and STA uops.
	Addr uint32
	// Kind is the execution class.
	Kind Kind
	// Dst is the destination register (NoReg if none).
	Dst Reg
	// Src1 and Src2 are source registers (NoReg if unused).
	Src1, Src2 Reg
	// Size is the access size in bytes for memory uops (default 4 or 8).
	Size uint8
	// Taken is the resolved direction for Branch uops.
	Taken bool
	// Mispredicted marks branches the front-end predictor got wrong; the
	// generator resolves this against the modelled front-end predictor so
	// the timing model can charge a refill bubble.
	Mispredicted bool
}

// Dep is one uop's entry in the static dependence side-car: the part of
// register renaming and store ordering that is a pure function of the uop
// stream, precomputed once per trace chunk and shared by every machine
// configuration replaying it (the same observation that makes Moshovos-style
// dependence prediction work — dependences are stable stream properties).
// All references are deltas — producers as stream-position deltas, stores
// as a delta over a per-batch store count — so they do not depend on where
// in the stream a batch sits, or on how often a finite trace has wrapped.
//
// The struct packs to 6 bytes; the side-car rides next to the 16-byte uop
// itself, so a recorded uop costs 22 bytes.
type Dep struct {
	// Src1Back and Src2Back give each source register's producer as a
	// backward stream-position delta: the producer of SrcN is the uop
	// DepSrcNBack positions earlier in the stream. 0 means no in-trace
	// producer (NoReg source, or no prior writer); DepSaturated means the
	// true delta is DepSaturated or larger — callers must treat any delta
	// at or beyond their in-flight window as already-retired, which is
	// exact as long as the window holds fewer than DepSaturated uops.
	Src1Back, Src2Back uint16
	// LastStore gives, for loads, the youngest store preceding this uop as
	// a delta over the side-car batch's store base: the absolute id is
	// base + LastStore, where the base — the number of STAs before the
	// batch — is reported alongside it. A batch holds at most ChunkUops
	// uops, so the delta always fits.
	LastStore uint16
}

// DepSaturated is the saturation value of the Src1Back/Src2Back deltas.
const DepSaturated = 1<<16 - 1

// HasMemAddr reports whether Addr is meaningful for this uop.
func (u *UOp) HasMemAddr() bool { return u.Kind == Load || u.Kind == STA }

// CacheLine returns the 64-byte cache line address of the uop's access.
func (u *UOp) CacheLine() uint64 { return uint64(u.Addr &^ 63) }

// String renders a compact single-line description, for debugging and logs.
func (u *UOp) String() string {
	switch u.Kind {
	case Load:
		return fmt.Sprintf("%s r%d <- [%#x] @%#x", u.Kind, u.Dst, u.Addr, u.IP)
	case STA:
		return fmt.Sprintf("%s [%#x] @%#x", u.Kind, u.Addr, u.IP)
	case STD:
		return fmt.Sprintf("%s r%d @%#x", u.Kind, u.Src1, u.IP)
	case Branch:
		dir := "nt"
		if u.Taken {
			dir = "t"
		}
		return fmt.Sprintf("%s %s @%#x", u.Kind, dir, u.IP)
	default:
		return fmt.Sprintf("%s r%d <- r%d,r%d @%#x", u.Kind, u.Dst, u.Src1, u.Src2, u.IP)
	}
}
