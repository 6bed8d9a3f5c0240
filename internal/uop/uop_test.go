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

// TestKindClasses pins which kinds carry an address, the class a
// recording stores an address for and its decoder reads one back for:
// loads and STAs, and no other kind.
func TestKindClasses(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		u := UOp{Op: NewOp(k, 0)}
		if got, want := u.HasMemAddr(), k == Load || k == STA; got != want {
			t.Errorf("%s: HasMemAddr %v, want %v", k, got, want)
		}
	}
}

func TestHasMemAddr(t *testing.T) {
	ld := UOp{Op: NewOp(Load, 8), Addr: 0x1000}
	if !ld.HasMemAddr() {
		t.Error("load has a memory address")
	}
	std := UOp{Op: NewOp(STD, 8)}
	if std.HasMemAddr() {
		t.Error("STD has no address")
	}
}

// TestOpRoundTrip carries every kind, coded access size and branch outcome
// through the op byte and back.
func TestOpRoundTrip(t *testing.T) {
	seen := map[Op]bool{}
	for k := Kind(0); k < numKinds; k++ {
		for _, size := range []uint8{0, 1, 2, 4, 8} {
			for _, taken := range []bool{false, true} {
				for _, mis := range []bool{false, true} {
					u := UOp{Op: NewOp(k, size).WithBranch(taken, mis)}
					if u.Kind() != k || u.Size() != size || u.Taken() != taken || u.Mispredicted() != mis {
						t.Fatalf("op %#x reads kind %s size %d taken %v mispredicted %v, want %s %d %v %v",
							u.Op, u.Kind(), u.Size(), u.Taken(), u.Mispredicted(), k, size, taken, mis)
					}
					if seen[u.Op] {
						t.Fatalf("op %#x stands for two uop shapes", u.Op)
					}
					seen[u.Op] = true
				}
			}
		}
	}
	if o := NewOp(Branch, 0).WithBranch(true, true).WithBranch(false, false); o != NewOp(Branch, 0) {
		t.Errorf("WithBranch(false, false) leaves %#x, want the flags cleared", o)
	}
}

// TestSizeCoded pins the access sizes the op byte can hold, and NewOp's
// refusal of any other size and of an unknown kind.
func TestSizeCoded(t *testing.T) {
	for s := 0; s < 256; s++ {
		want := s == 0 || s == 1 || s == 2 || s == 4 || s == 8
		if got := SizeCoded(uint8(s)); got != want {
			t.Errorf("SizeCoded(%d) = %v, want %v", s, got, want)
		}
	}
	for _, c := range []struct {
		k    Kind
		size uint8
	}{{Load, 3}, {STA, 16}, {Kind(NumKinds), 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOp(%d, %d) did not panic", c.k, c.size)
				}
			}()
			NewOp(c.k, c.size)
		}()
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		u    UOp
		want string
	}{
		{UOp{Op: NewOp(Load, 8), Dst: 3, Addr: 0x10, IP: 0x400000}, "ld"},
		{UOp{Op: NewOp(STA, 8), Addr: 0x20}, "sta [0x20]"},
		{UOp{Op: NewOp(STD, 8), Src1: 4}, "std r4"},
		{UOp{Op: NewOp(Branch, 0).WithBranch(true, false)}, "br t"},
		{UOp{Op: NewOp(Branch, 0)}, "br nt"},
		{UOp{Op: NewOp(IntALU, 8), Dst: 1, Src1: 2, Src2: 3}, "alu"},
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

// TestLayout pins the uop's size: every fetch, rename and recording decode
// copies one, as does each slot of the engine's window and of every
// cursor's decode buffer.
func TestLayout(t *testing.T) {
	if sz := unsafe.Sizeof(UOp{}); sz != 12 {
		t.Errorf("UOp is %d bytes, want 12", sz)
	}
}
