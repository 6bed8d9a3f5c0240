package trace

import "fmt"

// Group is one of the paper's seven trace groups.
type Group struct {
	// Name is the paper's group label.
	Name string
	// Traces are the individual workloads (the paper used 46 traces total).
	Traces []Profile
}

// Paper group names.
const (
	GroupSpecInt95 = "SpecInt95"
	GroupSpecFP95  = "SpecFP95"
	GroupSysmarkNT = "SysmarkNT"
	GroupSysmark95 = "Sysmark95"
	GroupGames     = "Games"
	GroupJava      = "Java"
	GroupTPC       = "TPC"
)

// base profiles per group. Each group's parameters are calibrated so that
// the published distributions hold: SpecFP has regular strided misses (most
// predictable), SpecInt and the Sysmarks are call-heavy with ≈10% colliding
// loads, Games/Java/TPC ("Other") have irregular pointer-chasing behavior
// (least predictable). Individual traces take the base with a per-trace seed
// and mild parameter jitter.
func baseProfile(group string) Profile {
	switch group {
	case GroupSpecInt95:
		return Profile{
			NumFuncs: 168, MeanBlockLen: 6, MeanLoopIters: 10, MaxCallDepth: 5,
			CallFrac: 0.4, MeanParams: 2, MeanSaves: 2,
			LocalVarFrac: 0.08, SlowStoreFrac: 0.2, SlowAddrFrac: 0.38,
			LoadFrac: 0.28, StoreFrac: 0.12, FPFrac: 0.01, ComplexFrac: 0.04,
			StreamFrac: 0.1, ChaseFrac: 0.06, GlobalFrac: 0.34,
			NumStreams: 3, StreamStride: 8, StreamWorkingSet: 64 << 10,
			ChaseWorkingSet: 18 << 10, NumGlobals: 64,
			BranchTakenBias: 0.62,
		}
	case GroupSpecFP95:
		return Profile{
			NumFuncs: 96, MeanBlockLen: 9, MeanLoopIters: 40, MaxCallDepth: 3,
			CallFrac: 0.15, MeanParams: 1, MeanSaves: 1,
			LocalVarFrac: 0.2, SlowStoreFrac: 0.35, SlowAddrFrac: 0.38,
			LoadFrac: 0.3, StoreFrac: 0.1, FPFrac: 0.25, ComplexFrac: 0.03,
			StreamFrac: 0.2, ChaseFrac: 0.01, GlobalFrac: 0.4,
			NumStreams: 6, StreamStride: 8, StreamWorkingSet: 192 << 10,
			ChaseWorkingSet: 8 << 10, NumGlobals: 48,
			BranchTakenBias: 0.8,
		}
	case GroupSysmarkNT:
		return Profile{
			NumFuncs: 216, MeanBlockLen: 5, MeanLoopIters: 8, MaxCallDepth: 6,
			CallFrac: 0.45, MeanParams: 2, MeanSaves: 2,
			LocalVarFrac: 0.08, SlowStoreFrac: 0.18, SlowAddrFrac: 0.35,
			LoadFrac: 0.27, StoreFrac: 0.14, FPFrac: 0.01, ComplexFrac: 0.05,
			StreamFrac: 0.08, ChaseFrac: 0.04, GlobalFrac: 0.38,
			NumStreams: 3, StreamStride: 8, StreamWorkingSet: 48 << 10,
			ChaseWorkingSet: 18 << 10, NumGlobals: 96,
			BranchTakenBias: 0.6,
		}
	case GroupSysmark95:
		return Profile{
			NumFuncs: 192, MeanBlockLen: 5, MeanLoopIters: 9, MaxCallDepth: 5,
			CallFrac: 0.4, MeanParams: 2, MeanSaves: 2,
			LocalVarFrac: 0.08, SlowStoreFrac: 0.18, SlowAddrFrac: 0.38,
			LoadFrac: 0.27, StoreFrac: 0.13, FPFrac: 0.02, ComplexFrac: 0.05,
			StreamFrac: 0.12, ChaseFrac: 0.1, GlobalFrac: 0.32,
			NumStreams: 3, StreamStride: 16, StreamWorkingSet: 14 << 10,
			ChaseWorkingSet: 20 << 10, NumGlobals: 80,
			BranchTakenBias: 0.6,
		}
	case GroupGames:
		return Profile{
			NumFuncs: 144, MeanBlockLen: 7, MeanLoopIters: 14, MaxCallDepth: 4,
			CallFrac: 0.3, MeanParams: 2, MeanSaves: 1,
			LocalVarFrac: 0.1, SlowStoreFrac: 0.25, SlowAddrFrac: 0.4,
			LoadFrac: 0.29, StoreFrac: 0.11, FPFrac: 0.12, ComplexFrac: 0.06,
			StreamFrac: 0.15, ChaseFrac: 0.22, GlobalFrac: 0.22,
			NumStreams: 4, StreamStride: 12, StreamWorkingSet: 16 << 10,
			ChaseWorkingSet: 18 << 10, NumGlobals: 64,
			BranchTakenBias: 0.65,
		}
	case GroupJava:
		return Profile{
			NumFuncs: 240, MeanBlockLen: 4, MeanLoopIters: 6, MaxCallDepth: 7,
			CallFrac: 0.5, MeanParams: 2, MeanSaves: 2,
			LocalVarFrac: 0.09, SlowStoreFrac: 0.19, SlowAddrFrac: 0.35,
			LoadFrac: 0.3, StoreFrac: 0.13, FPFrac: 0.01, ComplexFrac: 0.04,
			StreamFrac: 0.1, ChaseFrac: 0.15, GlobalFrac: 0.28,
			NumStreams: 2, StreamStride: 16, StreamWorkingSet: 12 << 10,
			ChaseWorkingSet: 20 << 10, NumGlobals: 96,
			BranchTakenBias: 0.6,
		}
	case GroupTPC:
		return Profile{
			NumFuncs: 192, MeanBlockLen: 6, MeanLoopIters: 10, MaxCallDepth: 5,
			CallFrac: 0.4, MeanParams: 2, MeanSaves: 2,
			LocalVarFrac: 0.1, SlowStoreFrac: 0.24, SlowAddrFrac: 0.42,
			LoadFrac: 0.28, StoreFrac: 0.12, FPFrac: 0.01, ComplexFrac: 0.05,
			StreamFrac: 0.12, ChaseFrac: 0.15, GlobalFrac: 0.26,
			NumStreams: 3, StreamStride: 24, StreamWorkingSet: 14 << 10,
			ChaseWorkingSet: 20 << 10, NumGlobals: 96,
			BranchTakenBias: 0.58,
		}
	default:
		panic(fmt.Sprintf("trace: unknown group %q", group))
	}
}

// traceNames per group, following the paper where it names traces (the NT
// traces of Figure 7: cd ex fl pd pm pp wd wp) and the benchmark suites'
// well-known member names otherwise.
var traceNames = map[string][]string{
	GroupSpecInt95: {"compress", "gcc", "go", "ijpeg", "xlisp", "m88ksim", "perl", "vortex"},
	GroupSpecFP95:  {"tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d", "apsi", "fpppp", "wave5"},
	GroupSysmarkNT: {"cd", "ex", "fl", "pd", "pm", "pp", "wd", "wp"},
	GroupSysmark95: {"s95a", "s95b", "s95c", "s95d", "s95e", "s95f", "s95g", "s95h"},
	GroupGames:     {"quake", "descent", "flightsim", "monster", "pod"},
	GroupJava:      {"jack", "javac", "jess", "raytrace", "db"},
	GroupTPC:       {"tpcc", "tpcd"},
}

// GroupNames lists the seven groups in the paper's order.
func GroupNames() []string {
	return []string{
		GroupSpecInt95, GroupSpecFP95, GroupSysmarkNT, GroupSysmark95,
		GroupGames, GroupJava, GroupTPC,
	}
}

// groups holds the seven groups, built once. Groups and GroupByName hand
// out copies of their trace slices; GroupProfiles hands out the shared
// slices themselves, which no caller may modify.
var groups = buildGroups()

func buildGroups() map[string]Group {
	out := make(map[string]Group, len(traceNames))
	for name, members := range traceNames {
		g := Group{Name: name}
		for i, tn := range members {
			p := baseProfile(name).withDefaults()
			p.Name = tn
			p.Seed = groupSeed(name) + int64(i)*7919
			// Mild per-trace jitter so members differ without leaving the
			// group's characteristic band.
			jitterProfile(&p, p.Seed)
			g.Traces = append(g.Traces, p)
		}
		out[name] = g
	}
	return out
}

// Groups returns all seven trace groups with their member traces.
func Groups() []Group {
	names := GroupNames()
	out := make([]Group, 0, len(names))
	for _, n := range names {
		g, _ := GroupByName(n)
		out = append(out, g)
	}
	return out
}

// GroupByName returns the named group, its Traces a fresh copy.
func GroupByName(name string) (Group, bool) {
	g, ok := groups[name]
	if !ok {
		return Group{}, false
	}
	g.Traces = append([]Profile(nil), g.Traces...)
	return g, true
}

// GroupProfiles returns the named group's traces without copying them:
// the slice is shared by every caller and must be treated as read-only.
// It suits callers that look a group up per job; GroupByName hands out a
// copy instead.
func GroupProfiles(name string) ([]Profile, bool) {
	g, ok := groups[name]
	return g.Traces[:len(g.Traces):len(g.Traces)], ok
}

// TraceByName returns a single trace profile as "Group/name".
func TraceByName(group, name string) (Profile, bool) {
	for _, t := range groups[group].Traces {
		if t.Name == name {
			return t, true
		}
	}
	return Profile{}, false
}

func groupSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

// jitterProfile perturbs a few shape parameters deterministically (±25%) so
// traces within a group are distinct workloads.
func jitterProfile(p *Profile, seed int64) {
	s := uint64(seed)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return 0.75 + 0.5*float64(s%1000)/1000.0
	}
	p.MeanLoopIters = max(1, int(float64(p.MeanLoopIters)*next()))
	p.MeanBlockLen = max(2, int(float64(p.MeanBlockLen)*next()))
	p.StreamWorkingSet = max(4096, int(float64(p.StreamWorkingSet)*next()))
	p.ChaseWorkingSet = max(4096, int(float64(p.ChaseWorkingSet)*next()))
	p.CallFrac *= next()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
