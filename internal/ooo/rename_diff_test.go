package ooo

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// Differential checks for rename: the producer links the engine's alias
// table resolves by age must match, slot for slot, what an independent
// per-register reference resolves by inspecting the slots themselves
// (valid, same age, still writing the register), across randomized
// machines, mixed trace groups and wrapping file replay. The reference
// also counts the stream's STAs, which number the stores, so it checks the
// youngest store rename stamps on each load and store half.

// aliasRef is the reference renamer: for each architectural register, the
// slot and rename age of its youngest renamed writer.
type aliasRef struct {
	slot [uop.MaxArchRegs]int32
	age  [uop.MaxArchRegs]int64
}

func newAliasRef() *aliasRef {
	a := &aliasRef{}
	for i := range a.slot {
		a.slot[i] = -1
	}
	return a
}

// resolve returns r's in-flight producer as slot and age, or (-1, 0) when
// the value is architectural: its youngest writer has retired, which shows
// as a freed slot or one reused by a different uop.
func (a *aliasRef) resolve(e *Engine, r uop.Reg) (int32, int64) {
	if r == uop.NoReg {
		return -1, 0
	}
	p := a.slot[r]
	if p < 0 || e.rob.flags[p]&fValid == 0 || e.rob.age[p] != a.age[r] || e.rob.u[p].Dst != r {
		return -1, 0
	}
	return p, a.age[r]
}

// checkRename steps a fresh engine e one cycle at a time until n
// uops have retired. After each cycle it resolves every slot renamed in
// that cycle, oldest first, through the alias tables and requires the
// engine's producer slots and age guards to match, each slot's age to be
// its uop's stream position, and each load's and store half's youngest
// store to be the number of STAs up to it in the stream. Nothing retires between
// rename and the end of a cycle, so the post-cycle window is the one rename
// saw, except for slots renamed later in the same cycle, which the age
// guard tells apart.
func checkRename(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	ref := newAliasRef()
	r := &e.rob
	linked, loads := 0, 0
	var pos int64  // stream position of the next uop renamed
	var stas int64 // STAs renamed so far: the youngest store's id
	for e.stats.Uops < n {
		before := e.renameAge
		e.cycle()
		renamed := int(e.renameAge - before)
		for w := e.count - renamed; w < e.count; w++ {
			idx := e.robIdx(w)
			u := &r.u[idx]
			if r.age[idx] != pos {
				t.Fatalf("cycle %d: uop %d renamed with age %d", e.Now(), pos, r.age[idx])
			}
			p1, s1 := ref.resolve(e, u.Src1)
			p2, s2 := ref.resolve(e, u.Src2)
			if r.src1Prod[idx] != p1 || r.src1Age[idx] != s1 || r.src2Prod[idx] != p2 || r.src2Age[idx] != s2 {
				t.Fatalf("cycle %d, uop %d: producers (%d,%d)/(%d,%d), the reference says (%d,%d)/(%d,%d)",
					e.Now(), pos, r.src1Prod[idx], r.src1Age[idx], r.src2Prod[idx], r.src2Age[idx], p1, s1, p2, s2)
			}
			if p1 >= 0 {
				linked++
			}
			if p2 >= 0 {
				linked++
			}
			switch u.Kind() {
			case uop.STA:
				stas++
			case uop.Load:
				loads++
			}
			if k := u.Kind(); (k == uop.Load || k == uop.STA || k == uop.STD) && r.lastStore[idx] != stas {
				t.Fatalf("cycle %d, uop %d (%s): youngest store %d, the stream has %d STAs up to it",
					e.Now(), pos, k, r.lastStore[idx], stas)
			}
			if u.Dst != uop.NoReg {
				ref.slot[u.Dst], ref.age[u.Dst] = int32(idx), pos
			}
			pos++
		}
	}
	if linked == 0 {
		t.Fatal("no operand resolved to an in-flight producer; the check saw no dependences")
	}
	if loads == 0 || stas == 0 {
		t.Fatalf("%d loads and %d stores renamed; the check saw no store ordering", loads, stas)
	}
}

// TestRenameSidecarDiff checks alias-table rename against the reference on
// randomized machine+workload configurations over shared-recording cursors
// (the sweep hot path). It kept its name from the dependence side-car that
// rename once read.
func TestRenameSidecarDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51deca6))
	profiles := diffProfiles(rng, 5)

	var cases []diffCase
	for i := 0; i < 16; i++ {
		cases = append(cases, diffCase{
			name:  fmt.Sprintf("random-%d", i),
			prof:  profiles[rng.Intn(len(profiles))],
			build: diffConfig(rng),
		})
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkRename(t, NewEngine(tc.build(), trace.Replay(tc.prof)), 5000)
		})
	}
}

// TestRenameSidecarDiffStreamWrap replays a recorded trace file through
// StreamReader past its end, so producers that reach back through the wrap
// and the engine's store count are checked across it.
func TestRenameSidecarDiffStreamWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(0x77a9))
	prof := diffProfiles(rng, 1)[0]
	path := filepath.Join(t.TempDir(), "wrap.trace")
	if err := trace.WriteTraceFile(path, prof, 6000); err != nil {
		t.Fatal(err)
	}
	r, err := trace.StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// 12000 uops = two full wraps of the 6000-uop file.
	checkRename(t, NewEngine(DefaultConfig(), r), 12000)
}
