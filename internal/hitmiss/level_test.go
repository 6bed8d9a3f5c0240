package hitmiss

import (
	"testing"

	"loadsched/internal/cache"
)

func TestTwoStageDefaultsToL1(t *testing.T) {
	p := NewTwoStage()
	if p.PredictLevel(0x400100, 0, 0) != cache.L1 {
		t.Fatal("unwarmed two-stage must predict L1")
	}
	if !p.PredictHit(0x400100, 0, 0) {
		t.Fatal("PredictHit must agree with PredictLevel")
	}
}

func TestTwoStageLearnsL2Misses(t *testing.T) {
	p := NewTwoStage()
	ip := uint64(0x400100)
	for i := 0; i < 30; i++ {
		p.UpdateLevel(ip, 0, 0, cache.Memory)
	}
	if p.PredictLevel(ip, 0, 0) != cache.Memory {
		t.Fatalf("load always missing L2 predicted %v", p.PredictLevel(ip, 0, 0))
	}
	// A load that misses L1 but hits L2.
	ip2 := uint64(0x400200)
	for i := 0; i < 30; i++ {
		p.UpdateLevel(ip2, 0, 0, cache.L2)
	}
	if p.PredictLevel(ip2, 0, 0) != cache.L2 {
		t.Fatalf("L2-hitting load predicted %v", p.PredictLevel(ip2, 0, 0))
	}
}

func TestTwoStageBinaryUpdateCompatible(t *testing.T) {
	p := NewTwoStage()
	ip := uint64(0x400100)
	for i := 0; i < 20; i++ {
		p.Update(ip, 0, 0, false) // binary miss → assume L2
	}
	if p.PredictLevel(ip, 0, 0) != cache.L2 {
		t.Fatalf("binary-trained miss should predict L2, got %v", p.PredictLevel(ip, 0, 0))
	}
}

func TestTwoStageSecondStageIsolated(t *testing.T) {
	// L2-stage training must not corrupt loads that always hit L1.
	p := NewTwoStage()
	hitIP, missIP := uint64(0x400300), uint64(0x400400)
	for i := 0; i < 50; i++ {
		p.UpdateLevel(hitIP, 0, 0, cache.L1)
		p.UpdateLevel(missIP, 0, 0, cache.Memory)
	}
	if p.PredictLevel(hitIP, 0, 0) != cache.L1 {
		t.Fatal("hitting load corrupted by second stage")
	}
	if p.Name() != "two-stage" {
		t.Fatalf("name = %q", p.Name())
	}
}
