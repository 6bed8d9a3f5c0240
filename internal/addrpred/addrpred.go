// Package addrpred implements a correlated load-address predictor in the
// spirit of Bekerman et al. [Beke99] ("Correlated Load-Address Predictor",
// ISCA-26), which the paper adapts for bank prediction: predicting the
// load's effective address trivially yields its bank bit.
//
// The implementation keeps, per static load, the last observed address, the
// last stride, and a confidence counter that rises while the stride repeats.
// Stack and global loads (constant address, stride 0) and streaming loads
// (constant stride) predict with high confidence; pointer-chasing loads
// never become confident and abstain. That yields the [Beke99] operating
// point the paper quotes: ≈70% of loads predicted with ≈98% accuracy.
package addrpred

// confMax is the saturation value of the 2-bit per-row confidence counter.
const confMax = 3

// confInit is the counter's initial (weakly-unconfident) value.
const confInit = 1

// Prediction is a predicted effective address.
type Prediction struct {
	// Addr is the predicted address (last + stride).
	Addr uint64
	// Confident reports whether the stride has repeated enough for the
	// prediction to be trusted.
	Confident bool
	// Hit reports whether the load had a table entry at all.
	Hit bool
}

// Predictor is a set-associative last-address + stride predictor in
// structure-of-arrays layout: each row field is its own flat slice, with
// set s's ways occupying indexes [s*ways, (s+1)*ways). A lookup walks the
// set's slice of the dense tag/valid arrays without touching address or
// stride state, and building or resetting the predictor never regrows the
// heap.
type Predictor struct {
	tag      []uint64
	valid    []bool
	lastAddr []uint64
	stride   []int64
	conf     []uint8
	lru      []uint64

	numSets int
	ways    int
	tick    uint64
	// ConfThreshold is the confidence level at which predictions are
	// reported Confident (counter value, 0..3).
	ConfThreshold uint8
}

// New builds a predictor with the given entry count (power of two when
// divided by ways) and associativity.
func New(entries, ways int) *Predictor {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("addrpred: bad geometry")
	}
	return &Predictor{
		tag:      make([]uint64, entries),
		valid:    make([]bool, entries),
		lastAddr: make([]uint64, entries),
		stride:   make([]int64, entries),
		conf:     make([]uint8, entries),
		lru:      make([]uint64, entries),
		numSets:  entries / ways,
		ways:     ways, ConfThreshold: 2,
	}
}

func (p *Predictor) index(ip uint64) (uint64, uint64) {
	v := ip >> 2
	return v % uint64(p.numSets), v / uint64(p.numSets)
}

// find returns the row index holding ip, or -1.
func (p *Predictor) find(ip uint64) int {
	set, tag := p.index(ip)
	base := int(set) * p.ways
	for i := base; i < base+p.ways; i++ {
		if p.valid[i] && p.tag[i] == tag {
			return i
		}
	}
	return -1
}

// Predict returns the address prediction for the load at ip.
func (p *Predictor) Predict(ip uint64) Prediction {
	i := p.find(ip)
	if i < 0 {
		return Prediction{}
	}
	return Prediction{
		Addr:      uint64(int64(p.lastAddr[i]) + p.stride[i]),
		Confident: p.conf[i] >= p.ConfThreshold,
		Hit:       true,
	}
}

// Update trains the predictor with the load's actual address.
func (p *Predictor) Update(ip, addr uint64) {
	i := p.find(ip)
	if i < 0 {
		set, tag := p.index(ip)
		base := int(set) * p.ways
		victim := base
		for w := base; w < base+p.ways; w++ {
			if !p.valid[w] {
				victim = w
				break
			}
			if p.lru[w] < p.lru[victim] {
				victim = w
			}
		}
		p.tick++
		p.tag[victim] = tag
		p.valid[victim] = true
		p.lastAddr[victim] = addr
		p.stride[victim] = 0
		p.conf[victim] = confInit
		p.lru[victim] = p.tick
		return
	}
	p.tick++
	p.lru[i] = p.tick
	stride := int64(addr) - int64(p.lastAddr[i])
	if stride == p.stride[i] {
		if p.conf[i] < confMax {
			p.conf[i]++
		}
	} else {
		// A broken stride costs two: drop confidence fast so irregular
		// loads abstain.
		if p.conf[i] > 2 {
			p.conf[i] -= 2
		} else {
			p.conf[i] = 0
		}
		p.stride[i] = stride
	}
	p.lastAddr[i] = addr
}
