package addrpred

import (
	"math/rand"
	"testing"
)

func TestColdMiss(t *testing.T) {
	p := New(256, 4)
	pr := p.Predict(0x400100)
	if pr.Hit || pr.Confident {
		t.Fatal("cold table must not predict")
	}
}

func TestConstantAddress(t *testing.T) {
	p := New(256, 4)
	ip, addr := uint64(0x400100), uint64(0x7fff0010)
	for i := 0; i < 5; i++ {
		p.Update(ip, addr)
	}
	pr := p.Predict(ip)
	if !pr.Confident || pr.Addr != addr {
		t.Fatalf("constant-address load not predicted: %+v", pr)
	}
}

func TestStride(t *testing.T) {
	p := New(256, 4)
	ip := uint64(0x400100)
	for i := 0; i < 6; i++ {
		p.Update(ip, uint64(0x1000+i*8))
	}
	pr := p.Predict(ip)
	if !pr.Confident {
		t.Fatal("steady stride must be confident")
	}
	if pr.Addr != 0x1000+6*8 {
		t.Fatalf("predicted %#x want %#x", pr.Addr, 0x1000+6*8)
	}
}

func TestNegativeStride(t *testing.T) {
	p := New(256, 4)
	ip := uint64(0x400100)
	for i := 0; i < 6; i++ {
		p.Update(ip, uint64(0x10000-i*16))
	}
	pr := p.Predict(ip)
	if !pr.Confident || pr.Addr != uint64(0x10000-6*16) {
		t.Fatalf("negative stride mispredicted: %+v", pr)
	}
}

func TestIrregularLoadAbstains(t *testing.T) {
	p := New(256, 4)
	rng := rand.New(rand.NewSource(5))
	ip := uint64(0x400100)
	confident := 0
	for i := 0; i < 200; i++ {
		if p.Predict(ip).Confident {
			confident++
		}
		p.Update(ip, uint64(rng.Intn(1<<20)))
	}
	if confident > 10 {
		t.Fatalf("random-address load was confident %d/200 times", confident)
	}
}

func TestStrideChangeRelearns(t *testing.T) {
	p := New(256, 4)
	ip := uint64(0x400100)
	for i := 0; i < 8; i++ {
		p.Update(ip, uint64(0x1000+i*8))
	}
	// Switch to stride 64 from a new base.
	base := uint64(0x9000)
	for i := 0; i < 8; i++ {
		p.Update(ip, base+uint64(i*64))
	}
	pr := p.Predict(ip)
	if !pr.Confident || pr.Addr != base+8*64 {
		t.Fatalf("did not relearn new stride: %+v", pr)
	}
}

func TestEvictionLRU(t *testing.T) {
	p := New(2, 2) // one set, two ways
	a, b, c := uint64(4), uint64(8), uint64(12)
	p.Update(a, 0x100)
	p.Update(b, 0x200)
	p.Update(a, 0x100) // refresh a
	p.Update(c, 0x300) // evicts b
	if !p.Predict(a).Hit || !p.Predict(c).Hit {
		t.Fatal("resident entries lost")
	}
	if p.Predict(b).Hit {
		t.Fatal("LRU entry should be gone")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10, 3)
}
