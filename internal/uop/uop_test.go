package uop

import (
	"strings"
	"testing"
	"unsafe"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Nop: "nop", IntALU: "alu", Complex: "cplx", FPU: "fp",
		Branch: "br", Load: "ld", STA: "sta", STD: "std",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q want %q", k, k.String(), w)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func TestKindClasses(t *testing.T) {
	if !Load.IsMem() || !STA.IsMem() {
		t.Error("Load and STA address memory")
	}
	if STD.IsMem() || IntALU.IsMem() {
		t.Error("STD and ALU do not address memory")
	}
	if !STA.IsStorePart() || !STD.IsStorePart() {
		t.Error("STA/STD are store parts")
	}
	if Load.IsStorePart() {
		t.Error("Load is not a store part")
	}
}

func TestHasMemAddr(t *testing.T) {
	ld := UOp{Kind: Load, Addr: 0x1000}
	if !ld.HasMemAddr() {
		t.Error("load has a memory address")
	}
	std := UOp{Kind: STD}
	if std.HasMemAddr() {
		t.Error("STD has no address")
	}
}

func TestCacheLine(t *testing.T) {
	u := UOp{Kind: Load, Addr: 0x1234}
	if u.CacheLine() != 0x1200 {
		t.Fatalf("line = %#x", u.CacheLine())
	}
	u.Addr = 0x1240
	if u.CacheLine() != 0x1240 {
		t.Fatalf("aligned line = %#x", u.CacheLine())
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		u    UOp
		want string
	}{
		{UOp{Kind: Load, Dst: 3, Addr: 0x10, IP: 0x400000}, "ld"},
		{UOp{Kind: STA, Addr: 0x20}, "sta [0x20]"},
		{UOp{Kind: STD, Src1: 4}, "std r4"},
		{UOp{Kind: Branch, Taken: true}, "br t"},
		{UOp{Kind: Branch, Taken: false}, "br nt"},
		{UOp{Kind: IntALU, Dst: 1, Src1: 2, Src2: 3}, "alu"},
	}
	for _, c := range cases {
		if got := c.u.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
}

func TestConstants(t *testing.T) {
	if NoReg != 0 {
		t.Error("NoReg must be the zero register")
	}
	if NumKinds != 8 {
		t.Errorf("NumKinds = %d", NumKinds)
	}
	if MaxArchRegs < 64 {
		t.Errorf("MaxArchRegs = %d too small for the synthetic ISA", MaxArchRegs)
	}
}

// TestLayout pins the record sizes a recording is made of: every recorded
// uop costs one UOp plus one Dep, so a field added to either grows every
// recording in the process by that much per uop.
func TestLayout(t *testing.T) {
	if sz := unsafe.Sizeof(UOp{}); sz != 16 {
		t.Errorf("UOp is %d bytes, want 16", sz)
	}
	if sz := unsafe.Sizeof(Dep{}); sz != 6 {
		t.Errorf("Dep is %d bytes, want 6", sz)
	}
}
